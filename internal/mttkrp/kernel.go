package mttkrp

import (
	"dismastd/internal/layout"
	"dismastd/internal/mat"
	"dismastd/internal/par"
	"dismastd/internal/tensor"
)

// Kernel is a pluggable representation of one mode of a tensor region,
// grouped by output row: the contract every sweep in the repository —
// MTTKRP accumulation and completion's per-row normal equations — runs
// against. Two implementations exist: *layout.ModeLayout (the compiled
// mode-sorted layout, the default) and *ModeView (the COO walk, the
// oracle the compiled layout is held to). Both group entries in the
// same stable order, so a given engine produces bitwise-identical
// factors under either.
//
// Groups are indexed 0..NumRows()-1; group g owns output row
// GroupRow(g) and the positions GroupRange(g). Positions address
// entries in group order; EntryCoord/EntryVal read one entry's
// coordinates and value without exposing how the representation stores
// them.
type Kernel interface {
	// NNZ reports the number of entries the kernel covers.
	NNZ() int
	// NumRows returns the number of non-empty row groups.
	NumRows() int
	// ModeSize returns the target mode's size — the output row count.
	ModeSize() int
	// GroupRow returns the output row of group g.
	GroupRow(g int) int32
	// GroupRange returns the position range [p0, p1) of group g.
	GroupRange(g int) (p0, p1 int32)
	// EntryCoord returns the mode-k coordinate of the entry at position p.
	EntryCoord(p int32, k int) int32
	// EntryVal returns the value of the entry at position p.
	EntryVal(p int32) float64
	// Validate panics unless dst and factors match the kernel's source
	// tensor (one factor per mode, rows equal to mode sizes, a common
	// column count shared with dst).
	Validate(dst *mat.Dense, factors []*mat.Dense)
	// ChunkStarts returns a work-balanced grid of at most c contiguous
	// group ranges, cached per c. Chunks own whole groups, so the grid
	// feeds scheduling only, never floating-point order.
	ChunkStarts(c int) []int32
	// AccumulateGroups adds the mode MTTKRP of groups [g0, g1) into
	// dst. tmp and acc are R-sized scratch. Disjoint group ranges write
	// disjoint rows — the unit of parallel work — and the bits a group
	// produces depend only on its own entries, never on the split.
	AccumulateGroups(dst *mat.Dense, factors []*mat.Dense, g0, g1 int, tmp, acc []float64)
}

// NewKernel builds the selected representation over every entry of t.
func NewKernel(t *tensor.Tensor, mode int, kind layout.Kind) Kernel {
	if kind == layout.Compiled {
		return layout.Compile(t, mode, nil)
	}
	return NewModeView(t, mode)
}

// NewKernelOf builds the selected representation over an explicit
// entry subset. A nil or empty list is an empty kernel — what an idle
// distributed rank holds.
func NewKernelOf(t *tensor.Tensor, mode int, entries []int32, kind layout.Kind) Kernel {
	if entries == nil {
		entries = []int32{}
	}
	if kind == layout.Compiled {
		return layout.Compile(t, mode, entries)
	}
	return newModeView(t, mode, entries)
}

// CompileKernels compiles the layout of every mode of t as chunks of
// pool, one mode per index: over entries[m] for mode m (NewKernelOf),
// or over every entry of t when entries is nil (NewKernel). A mode's
// layout depends on nothing but its mode and entry list, so the kernels
// are the same at every thread count.
func CompileKernels(pool *par.Pool, t *tensor.Tensor, entries [][]int32) []Kernel {
	c := &compileTask{t: t, entries: entries, out: make([]Kernel, t.Order())}
	pool.For(len(c.out), c)
	return c.out
}

type compileTask struct {
	t       *tensor.Tensor
	entries [][]int32
	out     []Kernel
}

func (c *compileTask) RunChunk(lo, hi, _ int) {
	for m := lo; m < hi; m++ {
		if c.entries == nil {
			c.out[m] = NewKernel(c.t, m, layout.Compiled)
		} else {
			c.out[m] = NewKernelOf(c.t, m, c.entries[m], layout.Compiled)
		}
	}
}
