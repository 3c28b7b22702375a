package layout_test

import (
	"testing"

	"dismastd/internal/layout"
	"dismastd/internal/mat"
	"dismastd/internal/mttkrp"
	"dismastd/internal/tensor"
	"dismastd/internal/xrand"
)

// FuzzCompileLayout checks, for arbitrary shapes, occupancies, and
// entry subsets, that a compiled layout is a faithful reorganisation of
// the region: enumerating its positions reproduces the COO entry
// multiset exactly (every listed entry once, coordinates and value
// intact), positions are mode-sorted, the sort is stable within a row,
// and its kernel reproduces the COO view's MTTKRP bit for bit at a
// fuzzed R in [1, 33]: up to two of the amd64 kernel's 16-column
// register blocks and an odd last column.
func FuzzCompileLayout(f *testing.F) {
	f.Add(uint8(3), uint8(6), uint16(100), uint64(1), uint8(0), uint8(0), uint8(4))
	f.Add(uint8(1), uint8(9), uint16(30), uint64(2), uint8(1), uint8(3), uint8(0))
	f.Add(uint8(4), uint8(3), uint16(200), uint64(3), uint8(2), uint8(1), uint8(9))
	f.Add(uint8(2), uint8(1), uint16(5), uint64(4), uint8(0), uint8(2), uint8(16))
	// Order 3, dims 16×3×6, target mode 1: three rows of 60–63
	// entries, so many four-entry blocks and every row a tail.
	f.Add(uint8(2), uint8(15), uint16(300), uint64(5), uint8(1), uint8(0), uint8(2))
	f.Fuzz(func(t *testing.T, order, dimSpread uint8, nnz uint16, seed uint64, mode, subset, rank uint8) {
		n := int(order)%4 + 1
		src := xrand.New(seed)
		dims := make([]int, n)
		for m := range dims {
			dims[m] = 1 + (int(dimSpread)+m*3)%16
		}
		b := tensor.NewBuilder(dims)
		idx := make([]int, n)
		for e := 0; e < int(nnz)%512; e++ {
			for m, d := range dims {
				idx[m] = src.Intn(d)
			}
			b.Append(idx, src.NormFloat64())
		}
		x := b.Build()
		target := int(mode) % n

		// Subset selection: 0 = all entries (nil), otherwise keep
		// entries pseudo-randomly with density subset/4.
		var entries []int32
		if subset%4 != 0 {
			entries = []int32{}
			for e := 0; e < x.NNZ(); e++ {
				if src.Intn(4) < int(subset)%4 {
					entries = append(entries, int32(e))
				}
			}
		}
		l := layout.Compile(x, target, entries)

		want := entries
		if want == nil {
			want = make([]int32, x.NNZ())
			for e := range want {
				want[e] = int32(e)
			}
		}
		if l.NNZ() != len(want) {
			t.Fatalf("layout covers %d entries, region has %d", l.NNZ(), len(want))
		}

		// The multiset contract: Perm must be a permutation of the input
		// list, and each position must carry that entry's exact
		// coordinates and value.
		listPos := map[int32]int{} // entry id -> index in the input list
		for i, e := range want {
			listPos[e] = i
		}
		seen := map[int32]bool{}
		pos := int32(0)
		for g := 0; g < l.NumRows(); g++ {
			row := l.GroupRow(g)
			if g > 0 && row <= l.GroupRow(g-1) {
				t.Fatalf("rows not strictly ascending at group %d", g)
			}
			p0, p1 := l.GroupRange(g)
			if p0 != pos {
				t.Fatalf("group %d starts at %d, want %d", g, p0, pos)
			}
			prevList := -1
			for p := p0; p < p1; p++ {
				e := l.Perm[p]
				if seen[e] {
					t.Fatalf("entry %d enumerated twice", e)
				}
				li, ok := listPos[e]
				if !ok {
					t.Fatalf("entry %d not in the region's list", e)
				}
				seen[e] = true
				if li <= prevList {
					t.Fatalf("row %d not stable: list index %d after %d", row, li, prevList)
				}
				prevList = li
				for k := 0; k < n; k++ {
					if l.EntryCoord(p, k) != x.Coords[int(e)*n+k] {
						t.Fatalf("entry %d coord %d mismatch", e, k)
					}
				}
				if l.EntryCoord(p, target) != row {
					t.Fatalf("entry %d in group of row %d has mode coord %d", e, row, l.EntryCoord(p, target))
				}
				if l.EntryVal(p) != x.Vals[e] {
					t.Fatalf("entry %d value mismatch", e)
				}
			}
			pos = p1
		}
		if int(pos) != len(want) {
			t.Fatalf("groups cover %d positions, want %d", pos, len(want))
		}

		r := int(rank)%33 + 1
		factors := randomFactors(dims, r, seed+1)
		got := mat.New(dims[target], r)
		accumulate(l, got, factors, r)
		coo := mat.New(dims[target], r)
		accumulate(mttkrp.NewKernelOf(x, target, want, layout.COO), coo, factors, r)
		if !sameBits(got, coo) {
			t.Fatalf("R=%d: compiled MTTKRP differs from the COO view bitwise", r)
		}
	})
}
