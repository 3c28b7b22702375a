package layout_test

import (
	"math"
	"slices"
	"testing"

	"dismastd/internal/layout"
	"dismastd/internal/mat"
	"dismastd/internal/mttkrp"
	"dismastd/internal/tensor"
	"dismastd/internal/xrand"
)

// deltaFixture appends a small order-3 region in two batches and
// returns the delta plus the equivalent tensor entries.
func deltaFixture(t *testing.T) (*layout.Delta, *tensor.Tensor) {
	t.Helper()
	d := layout.NewDelta([]int{4, 3, 2})
	b := tensor.NewBuilder([]int{4, 3, 2})
	batches := [][]struct {
		i, j, k int
		v       float64
	}{
		{{0, 0, 0, 1.5}, {2, 1, 1, -2}, {0, 2, 1, 3}},
		{{3, 0, 0, 0.5}, {0, 1, 1, 4}, {2, 1, 0, 1}},
	}
	for _, batch := range batches {
		var coords []int32
		var vals []float64
		for _, e := range batch {
			coords = append(coords, int32(e.i), int32(e.j), int32(e.k))
			vals = append(vals, e.v)
			b.Append([]int{e.i, e.j, e.k}, e.v)
		}
		d.Append(coords, vals)
	}
	return d, b.Build()
}

// TestDeltaRowAccumulateMatchesMTTKRP checks every row of every mode
// against the full MTTKRP of the equivalent tensor: summing the
// per-row contributions must reproduce the whole-region kernel's
// values (same products, possibly different entry order, so compare
// within floating-point slack).
func TestDeltaRowAccumulateMatchesMTTKRP(t *testing.T) {
	d, x := deltaFixture(t)
	src := xrand.New(7)
	const r = 3
	factors := make([]*mat.Dense, x.Order())
	for m, size := range x.Dims {
		factors[m] = mat.RandomUniform(size, r, src)
	}
	for m := 0; m < x.Order(); m++ {
		want := mttkrp.Compute(x, factors, m)
		got := mat.New(x.Dims[m], r)
		for i := 0; i < x.Dims[m]; i++ {
			d.AccumulateRow(got.Row(i), factors, m, int32(i))
		}
		if diff := mat.MaxAbsDiff(want, got); diff > 1e-12 {
			t.Fatalf("mode %d: delta row accumulation differs from MTTKRP by %g", m, diff)
		}
	}
}

// walkRow is the oracle for AccumulateRow: the generic N-mode walk it
// ran on every order before an order-3 row went through the compiled
// layout's row kernel. It visits the row's entries newest-first — by
// descending entry id, not through the row thread — and for each one
// fills tmp with v, multiplies in A_k[c_k] for k ascending past the
// target mode, and adds tmp into acc, which starts at zero.
func walkRow(d *layout.Delta, factors []*mat.Dense, mode int, row int32, acc []float64) {
	clear(acc)
	tmp := make([]float64, len(acc))
	var coords []int
	for e := d.NNZ() - 1; e >= 0; e-- {
		var v float64
		coords, v = d.Entry(e, coords)
		if coords[mode] != int(row) {
			continue
		}
		for c := range tmp {
			tmp[c] = v
		}
		for k, ck := range coords {
			if k == mode {
				continue
			}
			frow := factors[k].Row(ck)
			for c := range tmp {
				tmp[c] *= frow[c]
			}
		}
		for c := range acc {
			acc[c] += tmp[c]
		}
	}
}

// appendRandomEntries appends nnz entries in batches of up to 16.
// Every mode's row 0 takes about half of them (several hundred), row 1
// exactly one — the first entry — and the last empty rows of each mode
// none; values include ±0 and subnormals.
func appendRandomEntries(d *layout.Delta, src *xrand.Source, nnz, empty int) {
	dims := d.Dims()
	n := len(dims)
	var coords []int32
	var vals []float64
	for e := 0; e < nnz; e++ {
		for m := 0; m < n; m++ {
			c := 0
			switch {
			case e == 0:
				c = 1
			case src.Intn(2) == 1:
				c = 2 + src.Intn(dims[m]-2-empty)
			}
			coords = append(coords, int32(c))
		}
		v := src.NormFloat64()
		switch src.Intn(12) {
		case 0:
			v = 0
		case 1:
			v = math.Copysign(0, -1)
		case 2:
			v = 5e-324
		case 3:
			v = -3e-310
		}
		vals = append(vals, v)
		if len(vals) == 16 || e == nnz-1 {
			d.Append(coords, vals)
			coords, vals = coords[:0], vals[:0]
		}
	}
}

// TestDeltaAccumulateRowMatchesWalkBitwise holds AccumulateRow to the
// generic walk bit for bit, on every row of every mode of random
// regions of order 2, 3 (the row kernel's path) and 4: at R in
// {1, 2, 3, 10, 16, 17, 33}, so one column block, one and a partial
// one, and several run on amd64; on rows of several hundred entries,
// one entry and none; with ±0 and subnormal values and factors holding
// −0, subnormals and overflowing products; after appends, after Grow
// with more appends, and after Reset with fresh ones. acc holds NaN
// going in: the row's contribution replaces whatever it held.
func TestDeltaAccumulateRowMatchesWalkBitwise(t *testing.T) {
	for _, order := range []int{2, 3, 4} {
		for _, r := range []int{1, 2, 3, 10, 16, 17, 33} {
			src := xrand.New(uint64(100*order + r))
			dims := make([]int, order)
			factors := make([]*mat.Dense, order)
			for m := range dims {
				dims[m] = 6 + 2*m
				factors[m] = mat.RandomGaussian(dims[m], r, src)
			}
			withSpecials(factors, uint64(r))
			d := layout.NewDelta(dims)
			check := func(stage string) {
				t.Helper()
				if hot := d.RowNNZ(0, 0); hot < 200 {
					t.Fatalf("order %d R %d %s: hot row holds %d entries, want several hundred", order, r, stage, hot)
				}
				got, want := make([]float64, r), make([]float64, r)
				for m, size := range d.Dims() {
					for i := 0; i < size; i++ {
						for c := range got {
							got[c] = math.NaN()
						}
						d.AccumulateRow(got, factors, m, int32(i))
						walkRow(d, factors, m, int32(i), want)
						for c := range got {
							if math.Float64bits(got[c]) != math.Float64bits(want[c]) {
								t.Fatalf("order %d R %d %s: mode %d row %d (%d entries) col %d = %v, walk gives %v",
									order, r, stage, m, i, d.RowNNZ(m, int32(i)), c, got[c], want[c])
							}
						}
					}
				}
			}
			appendRandomEntries(d, src, 500, 1)
			check("appended")

			grown := make([]int, order)
			for m, size := range dims {
				grown[m] = size + 3
				growth := mat.RandomGaussian(3, r, src)
				withSpecials([]*mat.Dense{growth}, uint64(m))
				factors[m] = mat.StackRows(factors[m], growth)
			}
			d.Grow(grown)
			appendRandomEntries(d, src, 200, 2)
			check("grown")

			d.Reset()
			appendRandomEntries(d, src, 500, 1)
			check("reset")
		}
	}
}

func TestDeltaRowNNZAndEntries(t *testing.T) {
	d, x := deltaFixture(t)
	if d.NNZ() != x.NNZ() {
		t.Fatalf("NNZ = %d, want %d", d.NNZ(), x.NNZ())
	}
	for m := range d.Dims() {
		hist := x.SliceNNZ(m)
		for i := range hist {
			if got := d.RowNNZ(m, int32(i)); int64(got) != hist[i] {
				t.Fatalf("mode %d row %d: RowNNZ = %d, want %d", m, i, got, hist[i])
			}
		}
	}
	// The entry multiset survives a rebuild through a Builder.
	b := tensor.NewBuilder(d.Dims())
	var buf []int
	for e := 0; e < d.NNZ(); e++ {
		var v float64
		buf, v = d.Entry(e, buf)
		b.Append(buf, v)
	}
	if y := b.Build(); !slices.Equal(y.Dims, x.Dims) || !slices.Equal(y.Coords, x.Coords) || !slices.Equal(y.Vals, x.Vals) {
		t.Fatal("rebuilt tensor differs from source entries")
	}
}

func TestDeltaGrowAndReset(t *testing.T) {
	d, _ := deltaFixture(t)
	d.Grow([]int{6, 3, 2})
	d.Append([]int32{5, 0, 1}, []float64{9})
	if d.RowNNZ(0, 5) != 1 {
		t.Fatal("grown row did not receive its entry")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("shrinking Grow did not panic")
		}
	}()
	defer func() {
		d.Reset()
		if d.NNZ() != 0 || d.RowNNZ(0, 5) != 0 {
			t.Fatal("Reset left entries behind")
		}
		if d.Dims()[0] != 6 {
			t.Fatal("Reset changed dims")
		}
		d.Append([]int32{5, 2, 1}, []float64{1}) // still valid after reset
		d.Grow([]int{5, 3, 2})
	}()
}

// TestDeltaAppendNoAllocWarm pins the warmed append/accumulate path at
// zero allocations: after Reset, re-appending within the retained
// capacity must not touch the heap.
func TestDeltaAppendNoAllocWarm(t *testing.T) {
	d := layout.NewDelta([]int{8, 8, 8})
	coords := []int32{1, 2, 3, 4, 5, 6}
	vals := []float64{1, 2}
	factors := []*mat.Dense{mat.New(8, 2), mat.New(8, 2)}
	factors = append(factors, mat.New(8, 2))
	acc := make([]float64, 2)
	for i := 0; i < 4; i++ { // warm capacity
		d.Append(coords, vals)
	}
	d.Reset()
	allocs := testing.AllocsPerRun(100, func() {
		d.Reset()
		for i := 0; i < 4; i++ {
			d.Append(coords, vals)
		}
		d.AccumulateRow(acc, factors, 0, 1)
	})
	if allocs != 0 {
		t.Fatalf("warmed append/accumulate allocates %v per run", allocs)
	}
}
