package layout

import (
	"fmt"

	"dismastd/internal/mat"
	"dismastd/internal/tensor"
)

// ModeLayout is one mode's compiled representation of a tensor region:
// every per-entry array the sweep kernels touch, permuted into
// mode-sorted order so the inner loops run over contiguous memory.
// Build one with Compile (or through a Cache) once per snapshot region
// and reuse it across every sweep; the source tensor is only read at
// compile time.
type ModeLayout struct {
	Mode int   // the target mode
	Dims []int // mode sizes of the source tensor (copied)
	Lead int   // lead mode fibers group on: smallest mode != Mode, or -1 for order-1

	Rows      []int32 // distinct mode coordinates with entries, ascending
	RowStarts []int32 // row g owns positions [RowStarts[g], RowStarts[g+1])

	// Fibers are maximal runs of positions within one row that share
	// the lead mode's coordinate; the kernel hoists one factor-row
	// pointer per fiber. FiberStarts holds position boundaries
	// (FiberStarts[len-1] == nnz) and row g owns fibers
	// [RowFibers[g], RowFibers[g+1]).
	FiberStarts []int32
	RowFibers   []int32

	Vals   []float64 // region values, permuted
	Coords [][]int32 // Coords[k][p]: mode-k coordinate at position p, permuted
	Perm   []int32   // Perm[p]: source entry id at position p

	chunker Chunker
}

// Compile builds the mode layout of an entry subset in O(nnz·N + I_n).
// entries lists tensor entry ids (nil means every entry; an empty list
// is an empty layout — what an idle distributed rank holds). The
// underlying sort is stable, so positions within a row keep the input
// list's order — the exact order a flat COO walk visits them.
func Compile(t *tensor.Tensor, mode int, entries []int32) *ModeLayout {
	if mode < 0 || mode >= t.Order() {
		panic(fmt.Sprintf("layout: Compile mode %d on order-%d tensor", mode, t.Order()))
	}
	n := t.Order()
	order, counts := t.ModeSort(mode, entries)
	nnz := len(order)

	l := &ModeLayout{
		Mode: mode,
		Dims: append([]int(nil), t.Dims...),
		Lead: -1,
		Perm: order,
	}
	for k := 0; k < n; k++ {
		if k != mode {
			l.Lead = k
			break
		}
	}
	l.Vals = t.GatherVals(nil, order)
	l.Coords = make([][]int32, n)
	for k := 0; k < n; k++ {
		l.Coords[k] = t.GatherCoords(nil, k, order)
	}
	// Size the row and fiber arrays from the counting-sort histogram,
	// then fill them: no append below ever grows a slice.
	rows := 0
	for i := 0; i < t.Dims[mode]; i++ {
		if counts[i+1] > counts[i] {
			rows++
		}
	}
	l.Rows = make([]int32, 0, rows)
	l.RowStarts = make([]int32, 0, rows+1)
	for i := 0; i < t.Dims[mode]; i++ {
		if counts[i+1] > counts[i] {
			l.Rows = append(l.Rows, int32(i))
			l.RowStarts = append(l.RowStarts, counts[i])
		}
	}
	l.RowStarts = append(l.RowStarts, int32(nnz))

	// Fiber pointers: split each row's position range where the lead
	// coordinate changes (order-1 tensors have no lead; each row is one
	// fiber). Every row opens one fiber; each lead change inside a row
	// opens another.
	var lead []int32
	fibers := rows
	if l.Lead >= 0 {
		lead = l.Coords[l.Lead]
		for g := 0; g < rows; g++ {
			for p := l.RowStarts[g] + 1; p < l.RowStarts[g+1]; p++ {
				if lead[p] != lead[p-1] {
					fibers++
				}
			}
		}
	}
	l.RowFibers = make([]int32, 0, rows+1)
	l.FiberStarts = make([]int32, 0, fibers+1)
	for g := 0; g < rows; g++ {
		l.RowFibers = append(l.RowFibers, int32(len(l.FiberStarts)))
		p0, p1 := l.RowStarts[g], l.RowStarts[g+1]
		l.FiberStarts = append(l.FiberStarts, p0)
		if lead == nil {
			continue
		}
		for p := p0 + 1; p < p1; p++ {
			if lead[p] != lead[p-1] {
				l.FiberStarts = append(l.FiberStarts, p)
			}
		}
	}
	l.RowFibers = append(l.RowFibers, int32(len(l.FiberStarts)))
	l.FiberStarts = append(l.FiberStarts, int32(nnz))
	return l
}

// NNZ reports the number of entries the layout covers.
func (l *ModeLayout) NNZ() int { return len(l.Vals) }

// NumRows returns the number of non-empty rows (groups) in the mode.
func (l *ModeLayout) NumRows() int { return len(l.Rows) }

// NumFibers returns the number of fibers across all rows.
func (l *ModeLayout) NumFibers() int { return len(l.FiberStarts) - 1 }

// ModeSize returns the mode's size — the row count of the sweep's
// output matrix.
func (l *ModeLayout) ModeSize() int { return l.Dims[l.Mode] }

// GroupRow returns the output row of group g.
func (l *ModeLayout) GroupRow(g int) int32 { return l.Rows[g] }

// GroupRange returns the position range [p0, p1) of group g.
func (l *ModeLayout) GroupRange(g int) (p0, p1 int32) {
	return l.RowStarts[g], l.RowStarts[g+1]
}

// EntryCoord returns the mode-k coordinate of the entry at position p.
func (l *ModeLayout) EntryCoord(p int32, k int) int32 { return l.Coords[k][p] }

// EntryVal returns the value of the entry at position p.
func (l *ModeLayout) EntryVal(p int32) float64 { return l.Vals[p] }

// Validate panics unless dst and factors match the layout's source
// tensor: one factor per mode, row counts equal to mode sizes, a
// common column count R shared with dst, and dst rows equal to the
// target mode's size.
func (l *ModeLayout) Validate(dst *mat.Dense, factors []*mat.Dense) {
	if len(factors) != len(l.Dims) {
		panic(fmt.Sprintf("layout: %d factors for order-%d layout", len(factors), len(l.Dims)))
	}
	r := factors[0].Cols
	for m, f := range factors {
		if f.Rows != l.Dims[m] {
			panic(fmt.Sprintf("layout: factor %d has %d rows, mode size %d", m, f.Rows, l.Dims[m]))
		}
		if f.Cols != r {
			panic(fmt.Sprintf("layout: factor %d has %d cols, factor 0 has %d", m, f.Cols, r))
		}
	}
	if dst.Rows != l.Dims[l.Mode] || dst.Cols != r {
		panic(fmt.Sprintf("layout: destination %dx%d, want %dx%d", dst.Rows, dst.Cols, l.Dims[l.Mode], r))
	}
}

// ChunkStarts returns a fiber-balanced grid of at most c contiguous
// group ranges: boundary i is the first group at or past i/c of the
// layout's fibers. Chunk boundaries stay at row granularity — a row's
// accumulator never crosses a chunk — so the grid feeds scheduling
// only, never floating-point order. Grids are cached per c.
func (l *ModeLayout) ChunkStarts(c int) []int32 {
	return l.chunker.Grid(c, l.RowFibers)
}

// AccumulateGroups adds the mode MTTKRP contribution of groups
// [g0, g1) into dst. tmp and acc are R-sized scratch (tmp is unused by
// the order-3 fast path but must still be sized R).
//
// Determinism: the compiled kernel performs, entry by entry in
// position order, exactly the operation sequence of the COO walk —
// tmp = v, then tmp *= A_k[c_k] for k ascending, then acc += tmp, one
// write-back per row — so its results are bitwise identical to the
// row-grouped COO kernel and (because each accumulator starts at +0)
// to the flat scatter. Fibers only hoist a factor-row *pointer*; they
// never factor a multiplication out of the per-entry sequence.
func (l *ModeLayout) AccumulateGroups(dst *mat.Dense, factors []*mat.Dense, g0, g1 int, tmp, acc []float64) {
	if len(l.Dims) == 3 {
		l.accumulateGroups3(dst, factors, g0, g1, acc)
		return
	}
	n := len(l.Dims)
	for g := g0; g < g1; g++ {
		for c := range acc {
			acc[c] = 0
		}
		for fb := l.RowFibers[g]; fb < l.RowFibers[g+1]; fb++ {
			p0, p1 := l.FiberStarts[fb], l.FiberStarts[fb+1]
			var lead []float64
			if l.Lead >= 0 {
				lead = factors[l.Lead].Row(int(l.Coords[l.Lead][p0]))
			}
			for p := p0; p < p1; p++ {
				v := l.Vals[p]
				if lead == nil {
					for c := range tmp {
						tmp[c] = v
					}
				} else {
					for c := range tmp {
						tmp[c] = v * lead[c]
					}
				}
				for k := l.Lead + 1; k < n; k++ {
					if k == l.Mode {
						continue
					}
					row := factors[k].Row(int(l.Coords[k][p]))
					for c := range tmp {
						tmp[c] *= row[c]
					}
				}
				for c := range acc {
					acc[c] += tmp[c]
				}
			}
		}
		out := dst.Row(int(l.Rows[g]))
		for c := range out {
			out[c] += acc[c]
		}
	}
}

// accumulateGroups3 is the order-3 fast path: with exactly two
// non-target modes a < b (a is the lead), each entry contributes
// acc[c] += (v·A_a[c_a][c])·A_b[c_b][c] — the same left-associated
// product chain as the generic path, fused into the accumulate.
func (l *ModeLayout) accumulateGroups3(dst *mat.Dense, factors []*mat.Dense, g0, g1 int, acc []float64) {
	a := l.Lead
	b := 3 - l.Mode - a
	fa, fb := factors[a], factors[b]
	cb := l.Coords[b]
	for g := g0; g < g1; g++ {
		for c := range acc {
			acc[c] = 0
		}
		for f := l.RowFibers[g]; f < l.RowFibers[g+1]; f++ {
			p0, p1 := l.FiberStarts[f], l.FiberStarts[f+1]
			ra := fa.Row(int(l.Coords[a][p0]))
			for p := p0; p < p1; p++ {
				rb := fb.Row(int(cb[p]))
				v := l.Vals[p]
				for c := range acc {
					acc[c] += v * ra[c] * rb[c]
				}
			}
		}
		out := dst.Row(int(l.Rows[g]))
		for c := range out {
			out[c] += acc[c]
		}
	}
}
