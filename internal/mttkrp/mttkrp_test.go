package mttkrp

import (
	"fmt"
	"testing"
	"testing/quick"

	"dismastd/internal/layout"
	"dismastd/internal/mat"
	"dismastd/internal/tensor"
	"dismastd/internal/xrand"
)

func randomTensor(dims []int, nnz int, seed uint64) *tensor.Tensor {
	src := xrand.New(seed)
	b := tensor.NewBuilder(dims)
	idx := make([]int, len(dims))
	for e := 0; e < nnz; e++ {
		for m, d := range dims {
			idx[m] = src.Intn(d)
		}
		b.Append(idx, src.NormFloat64())
	}
	return b.Build()
}

func randomFactors(dims []int, r int, seed uint64) []*mat.Dense {
	src := xrand.New(seed)
	out := make([]*mat.Dense, len(dims))
	for m, d := range dims {
		out[m] = mat.RandomGaussian(d, r, src)
	}
	return out
}

// naiveMTTKRP computes X_(n) · KR(A_k, k≠n) through an explicit dense
// unfolding and materialised Khatri-Rao product — the definitional form
// against which both sparse kernels are checked.
func naiveMTTKRP(t *tensor.Tensor, factors []*mat.Dense, mode int) *mat.Dense {
	n := t.Order()
	// Dense unfolding X_(mode): rows indexed by mode coordinate, columns
	// by the remaining coordinates with the *later-mode-first* Khatri-Rao
	// convention (A_N ⊙ ... ⊙ A_{n+1} ⊙ A_{n-1} ⊙ ... ⊙ A_1): the column
	// offset of coordinate c is Σ_{k≠mode} c_k · Π_{l<k, l≠mode} I_l.
	cols := 1
	for m, d := range t.Dims {
		if m != mode {
			cols *= d
		}
	}
	unf := mat.New(t.Dims[mode], cols)
	buf := make([]int, n)
	for e := 0; e < t.NNZ(); e++ {
		c := t.Coord(e, buf)
		off := 0
		stride := 1
		for k := 0; k < n; k++ {
			if k == mode {
				continue
			}
			off += c[k] * stride
			stride *= t.Dims[k]
		}
		unf.Set(c[mode], off, t.Val(e))
	}
	// KR(A_k, k≠mode) with the same convention: row index of coordinate
	// tuple is Σ c_k·Π_{l<k} I_l, i.e. KhatriRao(later, earlier) nested.
	var kr *mat.Dense
	for k := 0; k < n; k++ {
		if k == mode {
			continue
		}
		if kr == nil {
			kr = factors[k].Clone()
		} else {
			kr = khatriRao(factors[k], kr)
		}
	}
	out := mat.New(unf.Rows, kr.Cols)
	mat.MulInto(out, unf, kr)
	return out
}

// khatriRao returns the column-wise Khatri-Rao product A ⊙ B:
// out[i*b.Rows+j, c] = A[i,c]·B[j,c].
func khatriRao(a, b *mat.Dense) *mat.Dense {
	out := mat.New(a.Rows*b.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			orow := out.Row(i*b.Rows + j)
			for c := range orow {
				orow[c] = a.At(i, c) * b.At(j, c)
			}
		}
	}
	return out
}

func TestFlatKernelMatchesNaive(t *testing.T) {
	dims := []int{5, 6, 4}
	x := randomTensor(dims, 40, 1)
	factors := randomFactors(dims, 3, 2)
	for mode := 0; mode < 3; mode++ {
		got := Compute(x, factors, mode)
		want := naiveMTTKRP(x, factors, mode)
		if d := mat.MaxAbsDiff(got, want); d > 1e-10 {
			t.Fatalf("mode %d: flat kernel differs from naive by %v", mode, d)
		}
	}
}

func TestFourthOrderMatchesNaive(t *testing.T) {
	dims := []int{4, 3, 5, 2}
	x := randomTensor(dims, 30, 3)
	factors := randomFactors(dims, 2, 4)
	for mode := 0; mode < 4; mode++ {
		got := Compute(x, factors, mode)
		want := naiveMTTKRP(x, factors, mode)
		if d := mat.MaxAbsDiff(got, want); d > 1e-10 {
			t.Fatalf("mode %d: differs from naive by %v", mode, d)
		}
	}
}

func TestRowGroupedMatchesFlat(t *testing.T) {
	dims := []int{30, 20, 10}
	x := randomTensor(dims, 500, 5)
	factors := randomFactors(dims, 4, 6)
	for mode := 0; mode < 3; mode++ {
		flat := Compute(x, factors, mode)
		grouped := mat.New(dims[mode], 4)
		NewModeView(x, mode).AccumulateIntoWS(grouped, factors, mat.NewWorkspace())
		if d := mat.MaxAbsDiff(flat, grouped); d > 1e-10 {
			t.Fatalf("mode %d: grouped kernel differs by %v", mode, d)
		}
	}
}

func TestAccumulateSumsPartitions(t *testing.T) {
	// MTTKRP over partitions of the entries must sum to the whole —
	// the property the distributed computation relies on.
	dims := []int{12, 10, 8}
	x := randomTensor(dims, 300, 7)
	factors := randomFactors(dims, 3, 8)
	whole := Compute(x, factors, 0)

	// Split by first-mode slice parity into two sub-tensors.
	even := tensor.NewBuilder(dims)
	odd := tensor.NewBuilder(dims)
	buf := make([]int, 3)
	for e := 0; e < x.NNZ(); e++ {
		c := x.Coord(e, buf)
		if c[0]%2 == 0 {
			even.Append(c, x.Val(e))
		} else {
			odd.Append(c, x.Val(e))
		}
	}
	sum := mat.New(dims[0], 3)
	AccumulateInto(sum, even.Build(), factors, 0)
	AccumulateInto(sum, odd.Build(), factors, 0)
	if d := mat.MaxAbsDiff(whole, sum); d > 1e-10 {
		t.Fatalf("partition sum differs by %v", d)
	}
}

func TestModeViewStructure(t *testing.T) {
	dims := []int{6, 5, 4}
	x := randomTensor(dims, 50, 9)
	for mode := 0; mode < 3; mode++ {
		v := NewModeView(x, mode)
		if len(v.Starts) != len(v.Rows)+1 {
			t.Fatalf("mode %d: %d starts for %d rows", mode, len(v.Starts), len(v.Rows))
		}
		total := 0
		n := x.Order()
		for g := 0; g < len(v.Rows); g++ {
			for p := v.Starts[g]; p < v.Starts[g+1]; p++ {
				e := int(v.EntryOrder[p])
				if x.Coords[e*n+mode] != v.Rows[g] {
					t.Fatalf("mode %d: entry %d grouped under wrong row", mode, e)
				}
				total++
			}
		}
		if total != x.NNZ() {
			t.Fatalf("mode %d: view covers %d of %d entries", mode, total, x.NNZ())
		}
		// Rows ascending, matching the slice histogram's support.
		hist := x.SliceNNZ(mode)
		idx := 0
		for i, h := range hist {
			if h == 0 {
				continue
			}
			if idx >= len(v.Rows) || int(v.Rows[idx]) != i {
				t.Fatalf("mode %d: row %d missing from view", mode, i)
			}
			if int(v.Starts[idx+1]-v.Starts[idx]) != int(h) {
				t.Fatalf("mode %d: row %d group size %d, histogram %d", mode, i, v.Starts[idx+1]-v.Starts[idx], h)
			}
			idx++
		}
	}
}

func TestInnerProductMatchesMTTKRPReuse(t *testing.T) {
	// <X, Y> must equal Σ_i M[i,:]·A_n[i,:] for every mode n — the
	// reuse identity of Section IV-B4.
	dims := []int{8, 7, 6}
	x := randomTensor(dims, 120, 11)
	factors := randomFactors(dims, 3, 12)
	direct := InnerProduct(x, factors)
	for mode := 0; mode < 3; mode++ {
		m := Compute(x, factors, mode)
		viaReuse := mat.Dot(m, factors[mode])
		if diff := direct - viaReuse; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("mode %d: reuse inner product differs by %v", mode, diff)
		}
	}
}

func TestInnerProductAgainstDense(t *testing.T) {
	if err := quick.Check(func(seed uint16) bool {
		dims := []int{4, 3, 3}
		x := randomTensor(dims, 15, uint64(seed)+1)
		factors := randomFactors(dims, 2, uint64(seed)+100)
		// Dense: Σ over all cells of X[c]·Y[c].
		dense := x.ToDense()
		want := 0.0
		idx := 0
		for i := 0; i < dims[0]; i++ {
			for j := 0; j < dims[1]; j++ {
				for k := 0; k < dims[2]; k++ {
					y := 0.0
					for r := 0; r < 2; r++ {
						y += factors[0].At(i, r) * factors[1].At(j, r) * factors[2].At(k, r)
					}
					want += dense[idx] * y
					idx++
				}
			}
		}
		got := InnerProduct(x, factors)
		diff := got - want
		return diff < 1e-9 && diff > -1e-9
	}, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestChecksPanic(t *testing.T) {
	dims := []int{3, 3, 3}
	x := randomTensor(dims, 10, 13)
	good := randomFactors(dims, 2, 14)
	for name, fn := range map[string]func(){
		"wrong factor count": func() { Compute(x, good[:2], 0) },
		"wrong factor rows":  func() { Compute(x, []*mat.Dense{good[0], mat.New(5, 2), good[2]}, 0) },
		"ragged cols":        func() { Compute(x, []*mat.Dense{good[0], good[1], mat.New(3, 4)}, 0) },
		"bad mode":           func() { Compute(x, good, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func benchTensor() (*tensor.Tensor, []*mat.Dense) {
	dims := []int{2000, 2000, 500}
	x := randomTensor(dims, 200000, 21)
	return x, randomFactors(dims, 10, 22)
}

func BenchmarkFlatKernel(b *testing.B) {
	x, factors := benchTensor()
	dst := mat.New(x.Dims[0], 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Zero()
		AccumulateInto(dst, x, factors, 0)
	}
}

func BenchmarkRowGroupedKernel(b *testing.B) {
	x, factors := benchTensor()
	v := NewModeView(x, 0)
	dst := mat.New(x.Dims[0], 10)
	ws := mat.NewWorkspace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Zero()
		v.AccumulateIntoWS(dst, factors, ws)
	}
}

func BenchmarkRowGroupedKernelWS(b *testing.B) {
	x, factors := benchTensor()
	v := NewModeView(x, 0)
	dst := mat.New(x.Dims[0], 10)
	ws := mat.NewWorkspace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst.Zero()
		v.AccumulateIntoWS(dst, factors, ws)
	}
}

// BenchmarkMTTKRP is the layout comparison grid: one sequential MTTKRP
// per (layout, mode) on the same tensor, so each mode's compiled row
// reads directly against its coo row. Compile time
// is excluded — the compiled rows measure the steady state a snapshot's
// sweeps run in.
func BenchmarkMTTKRP(b *testing.B) {
	x, factors := benchTensor()
	for _, kind := range []layout.Kind{layout.COO, layout.Compiled} {
		for mode := 0; mode < x.Order(); mode++ {
			k := NewKernel(x, mode, kind)
			dst := mat.New(x.Dims[mode], 10)
			tmp := make([]float64, 10)
			acc := make([]float64, 10)
			b.Run(fmt.Sprintf("layout=%s/mode=%d", kind, mode), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					dst.Zero()
					k.AccumulateGroups(dst, factors, 0, k.NumRows(), tmp, acc)
				}
			})
		}
	}
}

// BenchmarkCompile prices the one-off cost the compiled rows of
// BenchmarkMTTKRP exclude: building a mode layout from the tensor.
func BenchmarkCompile(b *testing.B) {
	x, _ := benchTensor()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		layout.Compile(x, 0, nil)
	}
}

// BenchmarkChunkStarts is the regression guard for the per-(view,
// thread-count) grid cache: a warm view serving two alternating chunk
// counts must never rebuild a grid (0 B/op under -benchmem).
func BenchmarkChunkStarts(b *testing.B) {
	x, _ := benchTensor()
	for _, tc := range []struct {
		name string
		k    Kernel
	}{
		{"layout=coo", NewKernel(x, 0, layout.COO)},
		{"layout=compiled", NewKernel(x, 0, layout.Compiled)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			tc.k.ChunkStarts(4)
			tc.k.ChunkStarts(8)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tc.k.ChunkStarts(4)
				tc.k.ChunkStarts(8)
			}
		})
	}
}
