// Package mttkrp implements the Matricized Tensor Times Khatri-Rao
// Product, the bottleneck operator of CP-ALS and of DisMASTD
// (Section IV-B1, Eq. 6):
//
//	M[i, :] = Σ_{entries with mode-n index i} X[c] · ∏_{k≠n} A_k[c_k, :]
//
// Only non-zero tensor entries contribute, and each entry touches one
// row per factor — the two properties the paper's partitioning exploits.
//
// The sweep engines run against the Kernel interface (kernel.go), a
// pluggable representation of one mode of a region with two
// implementations: internal/layout.ModeLayout, a compiled mode-sorted
// copy of the region with unit-stride loads — the layout every engine
// runs unless told otherwise — and ModeView, the
// row-grouped COO walk that orders entries by their mode-n index
// through an entry-order indirection, kept as the oracle the goldens
// hold the compiled layout to bit for bit (the benchmark's
// mttkrp.compiled_ns_per_nnz / mttkrp.coo_ns_per_nnz rows time the
// two). Neither is the flat kernel: AccumulateInto scatters each entry
// straight into the output, which is what Compute and the grouped
// kernels' bitwise reference tests run.
package mttkrp

import (
	"fmt"

	"dismastd/internal/layout"
	"dismastd/internal/mat"
	"dismastd/internal/tensor"
)

// checkFactors panics unless factors match the tensor: one factor per
// mode, row counts equal to mode sizes, and a common column count R,
// which it returns.
func checkFactors(t *tensor.Tensor, factors []*mat.Dense) int {
	if len(factors) != t.Order() {
		panic(fmt.Sprintf("mttkrp: %d factors for order-%d tensor", len(factors), t.Order()))
	}
	r := factors[0].Cols
	for m, f := range factors {
		if f.Rows != t.Dims[m] {
			panic(fmt.Sprintf("mttkrp: factor %d has %d rows, mode size %d", m, f.Rows, t.Dims[m]))
		}
		if f.Cols != r {
			panic(fmt.Sprintf("mttkrp: factor %d has %d cols, factor 0 has %d", m, f.Cols, r))
		}
	}
	return r
}

// Compute returns the mode-n MTTKRP of t with the given factors as a
// fresh Dims[mode] x R matrix, using the flat kernel.
func Compute(t *tensor.Tensor, factors []*mat.Dense, mode int) *mat.Dense {
	r := checkFactors(t, factors)
	dst := mat.New(t.Dims[mode], r)
	AccumulateInto(dst, t, factors, mode)
	return dst
}

// AccumulateInto adds the mode-n MTTKRP of t into dst, which must be
// Dims[mode] x R. Accumulation (rather than overwrite) lets callers sum
// contributions from several tensor partitions, as the distributed
// runtime does.
func AccumulateInto(dst *mat.Dense, t *tensor.Tensor, factors []*mat.Dense, mode int) {
	r := checkFactors(t, factors)
	if mode < 0 || mode >= t.Order() {
		panic(fmt.Sprintf("mttkrp: mode %d on order-%d tensor", mode, t.Order()))
	}
	if dst.Rows != t.Dims[mode] || dst.Cols != r {
		panic(fmt.Sprintf("mttkrp: destination %dx%d, want %dx%d", dst.Rows, dst.Cols, t.Dims[mode], r))
	}
	tmp := make([]float64, r)
	n := t.Order()
	for e := 0; e < t.NNZ(); e++ {
		entryProductInto(tmp, t, factors, mode, e)
		out := dst.Row(int(t.Coords[e*n+mode]))
		for c := range tmp {
			out[c] += tmp[c]
		}
	}
}

// entryProductInto fills tmp with entry e's contribution to the mode-n
// MTTKRP: X[e] · ∏_{k≠mode} A_k[coords_k, :]. It is the one inner
// kernel both the flat and the row-grouped paths run, so the two can
// never drift apart numerically.
func entryProductInto(tmp []float64, t *tensor.Tensor, factors []*mat.Dense, mode, e int) {
	n := t.Order()
	base := e * n
	v := t.Vals[e]
	for c := range tmp {
		tmp[c] = v
	}
	for k := 0; k < n; k++ {
		if k == mode {
			continue
		}
		row := factors[k].Row(int(t.Coords[base+k]))
		for c := range tmp {
			tmp[c] *= row[c]
		}
	}
}

// InnerProduct returns the inner product <X, [[A_1 ... A_N]]> =
// Σ_entries X[c] · Σ_r ∏_k A_k[c_k, r]. The distributed loss reuses the
// MTTKRP result instead (Section IV-B4); this direct form exists for
// verification and centralized baselines.
func InnerProduct(t *tensor.Tensor, factors []*mat.Dense) float64 {
	return innerProductScratch(t, factors, make([]float64, checkFactors(t, factors)))
}

func innerProductScratch(t *tensor.Tensor, factors []*mat.Dense, tmp []float64) float64 {
	n := t.Order()
	total := 0.0
	for e := 0; e < t.NNZ(); e++ {
		base := e * n
		for c := range tmp {
			tmp[c] = 1
		}
		for k := 0; k < n; k++ {
			row := factors[k].Row(int(t.Coords[base+k]))
			for c := range tmp {
				tmp[c] *= row[c]
			}
		}
		s := 0.0
		for _, v := range tmp {
			s += v
		}
		total += t.Vals[e] * s
	}
	return total
}

// ModeView is the COO Kernel: a counting-sort arrangement of tensor
// entries by one mode's coordinate, grouping together all entries of
// each slice, walked through the source tensor's coordinate arrays via
// an entry-order indirection. It is built once per (tensor, mode) and
// reused across ALS iterations — the sparsity pattern is fixed within
// a snapshot. A view may cover the whole tensor (NewModeView) or an
// explicit entry subset (NewModeViewOf), which is how the distributed
// workers group the entries their partition assigned them.
type ModeView struct {
	Mode       int
	EntryOrder []int32 // entry ids ordered by mode coordinate
	Rows       []int32 // distinct mode coordinates, ascending
	Starts     []int32 // group i spans EntryOrder[Starts[i]:Starts[i+1]]

	t       *tensor.Tensor // the viewed tensor, bound at construction
	chunker layout.Chunker // per-c chunk grids (see ChunkStarts)
}

// NewModeView builds the view of every entry in O(nnz + I_n).
func NewModeView(t *tensor.Tensor, mode int) *ModeView {
	return newModeView(t, mode, nil)
}

// newModeView builds the view of an explicit entry subset, or of every
// entry when entries is nil. The counting sort is stable — entries of
// one slice keep their order from the input list — so the grouped
// kernel accumulates each output row in exactly the order the flat
// kernel would visit it.
func newModeView(t *tensor.Tensor, mode int, entries []int32) *ModeView {
	if mode < 0 || mode >= t.Order() {
		panic(fmt.Sprintf("mttkrp: NewModeView mode %d on order-%d tensor", mode, t.Order()))
	}
	order, counts := t.ModeSort(mode, entries)
	v := &ModeView{Mode: mode, EntryOrder: order, t: t}
	for i := 0; i < t.Dims[mode]; i++ {
		if counts[i+1] > counts[i] {
			v.Rows = append(v.Rows, int32(i))
			v.Starts = append(v.Starts, counts[i])
		}
	}
	v.Starts = append(v.Starts, int32(len(order)))
	return v
}

// NumRows returns the number of non-empty slices in the viewed mode.
func (v *ModeView) NumRows() int { return len(v.Rows) }

// ModeSize returns the viewed mode's size — the output row count.
func (v *ModeView) ModeSize() int { return v.t.Dims[v.Mode] }

// GroupRow returns the output row of group g.
func (v *ModeView) GroupRow(g int) int32 { return v.Rows[g] }

// GroupRange returns the position range [p0, p1) of group g.
func (v *ModeView) GroupRange(g int) (p0, p1 int32) {
	return v.Starts[g], v.Starts[g+1]
}

// EntryCoord returns the mode-k coordinate of the entry at position p.
func (v *ModeView) EntryCoord(p int32, k int) int32 {
	return v.t.Coords[int(v.EntryOrder[p])*v.t.Order()+k]
}

// EntryVal returns the value of the entry at position p.
func (v *ModeView) EntryVal(p int32) float64 { return v.t.Vals[v.EntryOrder[p]] }

// Validate panics unless dst and factors match the viewed tensor.
func (v *ModeView) Validate(dst *mat.Dense, factors []*mat.Dense) {
	r := checkFactors(v.t, factors)
	if dst.Rows != v.t.Dims[v.Mode] || dst.Cols != r {
		panic(fmt.Sprintf("mttkrp: destination %dx%d, want %dx%d", dst.Rows, dst.Cols, v.t.Dims[v.Mode], r))
	}
}

// AccumulateGroups runs the grouped kernel over groups [g0, g1). Each
// group owns one output row, so disjoint group ranges write disjoint
// rows — the unit of parallel work. The bits a group produces depend
// only on its own entries, never on the range split.
func (v *ModeView) AccumulateGroups(dst *mat.Dense, factors []*mat.Dense, g0, g1 int, tmp, acc []float64) {
	t := v.t
	for g := g0; g < g1; g++ {
		for c := range acc {
			acc[c] = 0
		}
		for p := v.Starts[g]; p < v.Starts[g+1]; p++ {
			entryProductInto(tmp, t, factors, v.Mode, int(v.EntryOrder[p]))
			for c := range acc {
				acc[c] += tmp[c]
			}
		}
		out := dst.Row(int(v.Rows[g]))
		for c := range out {
			out[c] += acc[c]
		}
	}
}

// NNZ reports the number of entries the view covers.
func (v *ModeView) NNZ() int { return int(v.Starts[len(v.Starts)-1]) }

// ChunkStarts returns an nnz-balanced grid of at most c contiguous
// group ranges: boundary i is the first group at or past i/c of the
// view's entries, so chunks carry near-equal work even when slice
// populations are skewed. The grid is a pure function of (view, c) —
// nothing about scheduling feeds it — and is cached per c, so a view
// driven at several thread counts recomputes nothing in steady state.
func (v *ModeView) ChunkStarts(c int) []int32 {
	return v.chunker.Grid(c, v.Starts)
}
