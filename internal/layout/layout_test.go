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

func TestParseKind(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want layout.Kind
		ok   bool
	}{
		{"", layout.Compiled, true},
		{"coo", layout.COO, true},
		{"compiled", layout.Compiled, true},
		{"csf", 0, false},
		{"COO", 0, false},
	} {
		got, err := layout.ParseKind(tc.in)
		if tc.ok && (err != nil || got != tc.want) {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if !tc.ok && err == nil {
			t.Errorf("ParseKind(%q) accepted, want error", tc.in)
		}
	}
	if layout.COO.String() != "coo" || layout.Compiled.String() != "compiled" {
		t.Errorf("Kind strings %q, %q", layout.COO, layout.Compiled)
	}
}

// TestDefaultIsCompiled pins the spellings of "no layout chosen" to the
// same kind: the zero Kind, the empty string, and the kind's own name.
func TestDefaultIsCompiled(t *testing.T) {
	if layout.Kind(0) != layout.Compiled {
		t.Fatalf("layout.Kind(0) = %v, want compiled", layout.Kind(0))
	}
	name := layout.Compiled.String()
	empty, err1 := layout.ParseKind("")
	parsed, err2 := layout.ParseKind(name)
	if err1 != nil || err2 != nil || empty != parsed || parsed != layout.Compiled {
		t.Fatalf("ParseKind(\"\") = %v, %v; ParseKind(%q) = %v, %v", empty, err1, name, parsed, err2)
	}
}

// TestCompileStructure checks every invariant of a compiled layout:
// rows ascending and non-empty, position ranges tiling [0, nnz), and
// Perm a permutation of the compiled entry subset in mode-sorted stable
// order.
func TestCompileStructure(t *testing.T) {
	x := randomTensor([]int{9, 7, 5, 4}, 600, 3)
	for mode := 0; mode < x.Order(); mode++ {
		l := layout.Compile(x, mode, nil)
		if l.NNZ() != x.NNZ() {
			t.Fatalf("mode %d: NNZ %d, want %d", mode, l.NNZ(), x.NNZ())
		}
		if l.ModeSize() != x.Dims[mode] {
			t.Fatalf("mode %d: ModeSize %d, want %d", mode, l.ModeSize(), x.Dims[mode])
		}
		wantLead := 0
		if mode == 0 {
			wantLead = 1
		}
		if l.Lead != wantLead {
			t.Fatalf("mode %d: lead %d, want %d", mode, l.Lead, wantLead)
		}
		seen := make([]bool, x.NNZ())
		prevRow := int32(-1)
		for g := 0; g < l.NumRows(); g++ {
			row := l.GroupRow(g)
			if row <= prevRow {
				t.Fatalf("mode %d: rows not ascending at group %d", mode, g)
			}
			prevRow = row
			p0, p1 := l.GroupRange(g)
			if p1 <= p0 {
				t.Fatalf("mode %d: empty group %d", mode, g)
			}
			for p := p0; p < p1; p++ {
				e := l.Perm[p]
				if seen[e] {
					t.Fatalf("mode %d: entry %d appears twice in Perm", mode, e)
				}
				seen[e] = true
				if l.EntryCoord(p, mode) != row {
					t.Fatalf("mode %d: position %d has coord %d, row %d", mode, p, l.EntryCoord(p, mode), row)
				}
				// Stable sort: within a row, source ids ascend (the
				// all-entries input list is 0..nnz-1).
				if p > p0 && l.Perm[p] <= l.Perm[p-1] {
					t.Fatalf("mode %d: Perm not stable within row %d", mode, row)
				}
				// The permuted SoA must mirror the source entry exactly.
				for k := 0; k < x.Order(); k++ {
					if l.EntryCoord(p, k) != x.Coords[int(e)*x.Order()+k] {
						t.Fatalf("mode %d: coords mismatch at position %d mode %d", mode, p, k)
					}
				}
				if l.EntryVal(p) != x.Vals[e] {
					t.Fatalf("mode %d: value mismatch at position %d", mode, p)
				}
			}
		}
		for e, ok := range seen {
			if !ok {
				t.Fatalf("mode %d: entry %d missing from Perm", mode, e)
			}
		}
		// Sized from the counting-sort histogram, not grown by append:
		// the row arrays hold exactly what they were given.
		for name, a := range map[string][]int32{"Rows": l.Rows, "RowStarts": l.RowStarts} {
			if cap(a) != len(a) {
				t.Errorf("mode %d: %s has len %d, cap %d — not sized exactly", mode, name, len(a), cap(a))
			}
		}
	}
}

func TestCompileEmptySubset(t *testing.T) {
	x := randomTensor([]int{6, 5}, 40, 1)
	l := layout.Compile(x, 0, []int32{})
	if l.NNZ() != 0 || l.NumRows() != 0 {
		t.Fatalf("empty subset: nnz=%d rows=%d, want both 0", l.NNZ(), l.NumRows())
	}
	starts := l.ChunkStarts(4)
	if len(starts) != 2 || starts[0] != 0 || starts[1] != 0 {
		t.Fatalf("empty subset ChunkStarts = %v", starts)
	}
}

// accumulate runs a kernel over all of its groups sequentially.
func accumulate(k mttkrp.Kernel, dst *mat.Dense, factors []*mat.Dense, r int) {
	tmp, acc := make([]float64, r), make([]float64, r)
	k.AccumulateGroups(dst, factors, 0, k.NumRows(), tmp, acc)
}

func sameBits(a, b *mat.Dense) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// TestCompiledMatchesCOOBitwise is the core determinism contract: the
// compiled kernel must reproduce the COO row-grouped kernel (and the
// flat scatter) bit for bit, for every order, every mode, and both the
// order-3 fast path and the generic path.
func TestCompiledMatchesCOOBitwise(t *testing.T) {
	const r = 5
	for _, dims := range [][]int{{17}, {11, 7}, {12, 10, 8}, {7, 6, 5, 4}} {
		x := randomTensor(dims, 30*len(dims)*len(dims), uint64(len(dims)))
		factors := randomFactors(dims, r, 99)
		for mode := range dims {
			coo := mat.New(dims[mode], r)
			accumulate(mttkrp.NewKernel(x, mode, layout.COO), coo, factors, r)
			compiled := mat.New(dims[mode], r)
			accumulate(mttkrp.NewKernel(x, mode, layout.Compiled), compiled, factors, r)
			if !sameBits(coo, compiled) {
				t.Fatalf("order %d mode %d: compiled result differs from COO bitwise", len(dims), mode)
			}
			flat := mat.New(dims[mode], r)
			mttkrp.AccumulateInto(flat, x, factors, mode)
			if !sameBits(coo, flat) {
				t.Fatalf("order %d mode %d: grouped COO differs from flat scatter bitwise", len(dims), mode)
			}
		}
	}
}

// TestCompiledSubsetMatchesCOOBitwise checks the same contract on
// arbitrary entry subsets — the shape distributed ranks hold.
func TestCompiledSubsetMatchesCOOBitwise(t *testing.T) {
	const r = 4
	dims := []int{12, 9, 7}
	x := randomTensor(dims, 500, 8)
	factors := randomFactors(dims, r, 21)
	src := xrand.New(77)
	var entries []int32
	for e := 0; e < x.NNZ(); e++ {
		if src.Intn(3) != 0 {
			entries = append(entries, int32(e))
		}
	}
	for mode := range dims {
		coo := mat.New(dims[mode], r)
		accumulate(mttkrp.NewKernelOf(x, mode, entries, layout.COO), coo, factors, r)
		compiled := mat.New(dims[mode], r)
		accumulate(mttkrp.NewKernelOf(x, mode, entries, layout.Compiled), compiled, factors, r)
		if !sameBits(coo, compiled) {
			t.Fatalf("mode %d: compiled subset result differs from COO bitwise", mode)
		}
	}
}

// TestChunkStartsRowGranularity: chunk boundaries always fall between
// groups, every group is covered exactly once, and boundaries are
// non-decreasing — the properties that keep the grid a pure scheduling
// artifact.
func TestChunkStartsRowGranularity(t *testing.T) {
	x := randomTensor([]int{40, 20, 10}, 3000, 5)
	l := layout.Compile(x, 0, nil)
	for c := 1; c <= 12; c++ {
		starts := l.ChunkStarts(c)
		if starts[0] != 0 || starts[len(starts)-1] != int32(l.NumRows()) {
			t.Fatalf("c=%d: grid %v does not cover [0, %d]", c, starts, l.NumRows())
		}
		if len(starts)-1 > c {
			t.Fatalf("c=%d: %d chunks", c, len(starts)-1)
		}
		for i := 1; i < len(starts); i++ {
			if starts[i] < starts[i-1] {
				t.Fatalf("c=%d: decreasing grid %v", c, starts)
			}
		}
	}
}

func TestChunkerCachesPerCount(t *testing.T) {
	x := randomTensor([]int{40, 20, 10}, 3000, 5)
	l := layout.Compile(x, 0, nil)
	a := l.ChunkStarts(4)
	b := l.ChunkStarts(4)
	if &a[0] != &b[0] {
		t.Fatal("repeated ChunkStarts(4) rebuilt the grid")
	}
	l.ChunkStarts(8)
	l.ChunkStarts(4)
	l.ChunkStarts(8)
	if allocs := testing.AllocsPerRun(10, func() { l.ChunkStarts(4); l.ChunkStarts(8) }); allocs != 0 {
		t.Fatalf("cached ChunkStarts allocates %v times, want 0", allocs)
	}
}

// TestAccumulateGroupsAllocFree: the compiled kernel's inner sweep is
// allocation-free once compiled — the 0-alloc steady-state contract.
func TestAccumulateGroupsAllocFree(t *testing.T) {
	const r = 8
	dims := []int{32, 24, 16}
	x := randomTensor(dims, 4000, 9)
	factors := randomFactors(dims, r, 10)
	l := layout.Compile(x, 0, nil)
	dst := mat.New(dims[0], r)
	tmp, acc := make([]float64, r), make([]float64, r)
	pass := func() {
		dst.Zero()
		l.AccumulateGroups(dst, factors, 0, l.NumRows(), tmp, acc)
	}
	pass()
	if allocs := testing.AllocsPerRun(10, pass); allocs != 0 {
		t.Fatalf("compiled AccumulateGroups allocates %v times, want 0", allocs)
	}
}

// TestAccumulateGroupsChecksShapes: the order-3 kernel loads factor
// and destination rows through raw pointers on amd64, so before the
// first load it panics on a factor or destination of the wrong shape —
// here one row or one column short — instead of reading past it.
func TestAccumulateGroupsChecksShapes(t *testing.T) {
	const r = 6
	dims := []int{8, 7, 6}
	x := randomTensor(dims, 300, 4)
	short := func(m *mat.Dense, rows, cols int) *mat.Dense {
		return &mat.Dense{Rows: rows, Cols: cols, Data: m.Data[:rows*cols]}
	}
	for mode := range dims {
		l := layout.Compile(x, mode, nil)
		a, b := l.Lead, 3-mode-l.Lead
		for _, tc := range []struct {
			name string
			edit func(dst *mat.Dense, factors []*mat.Dense) *mat.Dense
		}{
			{"lead factor one row short", func(dst *mat.Dense, f []*mat.Dense) *mat.Dense {
				f[a] = short(f[a], dims[a]-1, r)
				return dst
			}},
			{"second factor one row short", func(dst *mat.Dense, f []*mat.Dense) *mat.Dense {
				f[b] = short(f[b], dims[b]-1, r)
				return dst
			}},
			{"second factor one column short", func(dst *mat.Dense, f []*mat.Dense) *mat.Dense {
				f[b] = short(f[b], dims[b], r-1)
				return dst
			}},
			{"destination one row short", func(dst *mat.Dense, _ []*mat.Dense) *mat.Dense {
				return short(dst, dims[mode]-1, r)
			}},
		} {
			factors := randomFactors(dims, r, 5)
			dst := tc.edit(mat.New(dims[mode], r), factors)
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("mode %d, %s: AccumulateGroups did not panic", mode, tc.name)
					}
				}()
				l.AccumulateGroups(dst, factors, 0, l.NumRows(), make([]float64, r), make([]float64, r))
			}()
		}
	}
}

// rowsOfLengths builds an order-n tensor whose target-mode row i holds
// exactly i+1 entries, i in 0..8: every row length 1–9, so the order-3
// kernel meets every remainder mod 4 and up to two full blocks of four.
// The first non-target mode walks i, i+1, …, which keeps a row's
// coordinates distinct; the others are random.
func rowsOfLengths(n, target int, seed uint64) *tensor.Tensor {
	const rows = 9
	dims := make([]int, n)
	for m := range dims {
		dims[m] = 2*rows + m
	}
	dims[target] = rows
	first := 0
	if target == 0 {
		first = 1
	}
	src := xrand.New(seed)
	b := tensor.NewBuilder(dims)
	idx := make([]int, n)
	for i := 0; i < rows; i++ {
		for j := 0; j <= i; j++ {
			for m, d := range dims {
				idx[m] = src.Intn(d)
			}
			idx[target] = i
			idx[first] = i + j
			b.Append(idx, src.NormFloat64())
		}
	}
	return b.Build()
}

// subsetTensor returns the entries of x listed in entries, in list
// order, as a tensor of x's shape — the region the flat scatter sees.
func subsetTensor(x *tensor.Tensor, entries []int32) *tensor.Tensor {
	n := x.Order()
	sub := &tensor.Tensor{Dims: x.Dims}
	for _, e := range entries {
		sub.Coords = append(sub.Coords, x.Coords[int(e)*n:int(e)*n+n]...)
		sub.Vals = append(sub.Vals, x.Vals[e])
	}
	return sub
}

// withSpecials overwrites about one factor value in five with a value
// that tests the kernel's arithmetic rather than its indexing: −0, a
// signed subnormal, or a signed 1e160, whose products with another
// such factor overflow to ±Inf (and whose ±Inf sums in a row may give
// NaN — the one NaN every path makes alike). No factor is NaN: ingest
// refuses non-finite values.
func withSpecials(factors []*mat.Dense, seed uint64) []*mat.Dense {
	src := xrand.New(seed)
	for _, f := range factors {
		for i := range f.Data {
			sign := float64(1 - 2*src.Intn(2))
			switch src.Intn(15) {
			case 0:
				f.Data[i] = math.Copysign(0, -1)
			case 1:
				f.Data[i] = sign * 3e-310
			case 2:
				f.Data[i] = sign * 1e160
			}
		}
	}
	return factors
}

// TestCompiledRemaindersAndRanks holds the compiled kernel to the COO
// view and the flat scatter, bit for bit, on rows of every length 1–9
// (every remainder of the portable order-3 loop's four-entry blocks),
// at R in {1, 2, 3, 4, 5, 10, 16, 17, 32, 33} — on amd64 one register
// block of 16 columns with and without an odd last column, one block
// and a partial one, two full blocks, and two blocks plus an odd
// column — for orders 2, 3 and 4 (the generic path and the fast path)
// and for all entries and a two-thirds subset, with factors holding
// −0, subnormals and products that overflow to ±Inf. Dropping a
// kernel's tail (the portable loop's last entries, the amd64 kernel's
// odd column), summing two entries' products before adding them to the
// accumulator, or multiplying A_b before A_a fails it.
func TestCompiledRemaindersAndRanks(t *testing.T) {
	for _, n := range []int{2, 3, 4} {
		for target := 0; target < n; target++ {
			x := rowsOfLengths(n, target, uint64(10*n+target))
			var twoThirds []int32
			for e := 0; e < x.NNZ(); e++ {
				if e%3 != 2 {
					twoThirds = append(twoThirds, int32(e))
				}
			}
			all := make([]int32, x.NNZ())
			for e := range all {
				all[e] = int32(e)
			}
			for _, entries := range [][]int32{all, twoThirds} {
				region := subsetTensor(x, entries)
				compiled := mttkrp.NewKernelOf(x, target, entries, layout.Compiled)
				view := mttkrp.NewKernelOf(x, target, entries, layout.COO)
				for _, r := range []int{1, 2, 3, 4, 5, 10, 16, 17, 32, 33} {
					factors := withSpecials(randomFactors(x.Dims, r, uint64(r)), uint64(100+r))
					got := mat.New(x.Dims[target], r)
					accumulate(compiled, got, factors, r)
					coo := mat.New(x.Dims[target], r)
					accumulate(view, coo, factors, r)
					flat := mat.New(x.Dims[target], r)
					mttkrp.AccumulateInto(flat, region, factors, target)
					if !sameBits(got, coo) || !sameBits(got, flat) {
						t.Fatalf("order %d mode %d, %d of %d entries, R=%d: compiled differs from COO or flat bitwise",
							n, target, len(entries), x.NNZ(), r)
					}
				}
			}
		}
	}
}

// TestChunkStartsMatchCOO: the compiled layout and the COO view balance
// chunks by one rule — entries, over the same row starts — so on a
// skewed tensor their grids agree for every chunk count.
func TestChunkStartsMatchCOO(t *testing.T) {
	dims := []int{60, 20, 10}
	src := xrand.New(6)
	b := tensor.NewBuilder(dims)
	idx := make([]int, len(dims))
	for e := 0; e < 3000; e++ {
		// Row i is drawn with weight ~ 1/(i+1): a few heavy rows.
		idx[0] = src.Intn(src.Intn(dims[0]) + 1)
		idx[1], idx[2] = src.Intn(dims[1]), src.Intn(dims[2])
		b.Append(idx, src.NormFloat64())
	}
	x := b.Build()
	compiled := layout.Compile(x, 0, nil)
	view := mttkrp.NewModeView(x, 0)
	for c := 1; c <= 12; c++ {
		got, want := compiled.ChunkStarts(c), view.ChunkStarts(c)
		if !slices.Equal(got, want) {
			t.Fatalf("c=%d: compiled grid %v, COO grid %v", c, got, want)
		}
	}
}
