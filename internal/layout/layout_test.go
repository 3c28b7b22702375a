package layout_test

import (
	"math"
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
// rows ascending and non-empty, position ranges tiling [0, nnz), fibers
// maximal constant-lead runs nested in rows, and Perm a permutation of
// the compiled entry subset in mode-sorted stable order.
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
			// Fibers: maximal constant-lead runs covering [p0, p1).
			f0, f1 := l.RowFibers[g], l.RowFibers[g+1]
			if l.FiberStarts[f0] != p0 || l.FiberStarts[f1] != p1 {
				t.Fatalf("mode %d: fibers of group %d do not tile its range", mode, g)
			}
			for f := f0; f < f1; f++ {
				q0, q1 := l.FiberStarts[f], l.FiberStarts[f+1]
				if q1 <= q0 {
					t.Fatalf("mode %d: empty fiber %d", mode, f)
				}
				lead := l.EntryCoord(q0, l.Lead)
				for p := q0; p < q1; p++ {
					if l.EntryCoord(p, l.Lead) != lead {
						t.Fatalf("mode %d: fiber %d mixes lead coords", mode, f)
					}
				}
				// Maximality: the next fiber starts with a different lead.
				if q1 < p1 && l.EntryCoord(q1, l.Lead) == lead {
					t.Fatalf("mode %d: fiber %d not maximal", mode, f)
				}
			}
		}
		for e, ok := range seen {
			if !ok {
				t.Fatalf("mode %d: entry %d missing from Perm", mode, e)
			}
		}
		// Sized from the counting-sort histogram, not grown by append:
		// the row and fiber arrays hold exactly what they were given.
		for name, a := range map[string][]int32{"Rows": l.Rows, "RowStarts": l.RowStarts, "RowFibers": l.RowFibers, "FiberStarts": l.FiberStarts} {
			if cap(a) != len(a) {
				t.Errorf("mode %d: %s has len %d, cap %d — not sized exactly", mode, name, len(a), cap(a))
			}
		}
	}
}

func TestCompileEmptySubset(t *testing.T) {
	x := randomTensor([]int{6, 5}, 40, 1)
	l := layout.Compile(x, 0, []int32{})
	if l.NNZ() != 0 || l.NumRows() != 0 || l.NumFibers() != 0 {
		t.Fatalf("empty subset: nnz=%d rows=%d fibers=%d, want all 0", l.NNZ(), l.NumRows(), l.NumFibers())
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

func TestCacheIdentityKeying(t *testing.T) {
	x := randomTensor([]int{10, 8, 6}, 300, 2)
	entries := []int32{0, 5, 9, 11, 40}
	var c layout.Cache

	l1 := c.Get(x, 0, entries)
	if c.Get(x, 0, entries) != l1 {
		t.Fatal("same (tensor, mode, entries) recompiled")
	}
	c.Get(x, 1, entries)
	if c.Get(x, 0, entries) != l1 {
		t.Fatal("adding a second mode evicted the first")
	}
	if got := c.Compiles(); got != 2 {
		t.Fatalf("compiles = %d, want 2", got)
	}

	// Same contents, different slice identity: the planners hand fresh
	// lists only when the region changed, so this must recompile.
	clone := append([]int32(nil), entries...)
	if c.Get(x, 0, clone) == l1 {
		t.Fatal("identity keying matched a cloned entry list")
	}
	if got := c.Compiles(); got != 3 {
		t.Fatalf("compiles = %d, want 3", got)
	}

	// A different tensor drops everything.
	y := randomTensor([]int{10, 8, 6}, 300, 3)
	c.Get(y, 0, entries)
	if got := c.Compiles(); got != 4 {
		t.Fatalf("compiles = %d, want 4", got)
	}
	if c.Get(y, 0, entries) == l1 {
		t.Fatal("tensor change kept a stale layout")
	}
	if got := c.Compiles(); got != 4 {
		t.Fatalf("compiles after re-Get = %d, want 4", got)
	}

	c.Invalidate()
	c.Get(y, 0, entries)
	if got := c.Compiles(); got != 5 {
		t.Fatalf("compiles after Invalidate = %d, want 5", got)
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
