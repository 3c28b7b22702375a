package layout

import (
	"fmt"
	"slices"

	"dismastd/internal/mat"
)

// Delta is the incremental counterpart of Compile: an append-only
// layout of a *growing* region. Where Compile pays one mode-sorted
// rebuild per snapshot region — the right trade for a region that is
// then swept many times — Delta admits entries one micro-batch at a
// time in O(batch·N), threading each entry into a per-mode row list as
// it arrives instead of recompiling the whole region on every small
// delta. The event-granularity ingestion path appends every incoming
// event here and asks for exact per-row MTTKRP contributions over the
// pending region (AccumulateRow), which on an order-3 region run the
// compiled layout's own row kernel; the periodic full sweep still goes
// through Compile, which remains the representation of record for
// whole-region kernels.
//
// Entries are stored SoA (one value array, one coordinate array per
// mode) and each mode additionally carries an intrusive linked list:
// head[m][i] is the most recently appended entry of row i and
// next[m][e] the entry appended before e in the same row, so walking a
// row visits its entries newest-first. The walk order is fixed by
// arrival order alone, which keeps the accumulation deterministic for
// a given event sequence. Reset keeps every backing array, the row
// gather scratch included, so a warmed Delta appends and accumulates
// without allocating.
type Delta struct {
	dims   []int
	vals   []float64
	coords [][]int32 // coords[m][e]: entry e's mode-m coordinate
	next   [][]int32 // next[m][e]: previous entry in e's mode-m row, or -1
	head   [][]int32 // head[m][i]: latest entry of row i, or -1

	// One row's entries gathered newest-first for the order-3 kernel —
	// value and the two other-mode coordinates — and R-sized scratch
	// (the portable kernel's accumulator, the generic walk's product).
	rowVals    []float64
	rowA, rowB []int32
	rowScratch []float64
}

// NewDelta returns an empty incremental layout for a region with the
// given mode sizes.
func NewDelta(dims []int) *Delta {
	if len(dims) == 0 {
		panic("layout: NewDelta with no modes")
	}
	d := &Delta{
		dims:   append([]int(nil), dims...),
		coords: make([][]int32, len(dims)),
		next:   make([][]int32, len(dims)),
		head:   make([][]int32, len(dims)),
	}
	for m, size := range dims {
		if size < 0 {
			panic(fmt.Sprintf("layout: negative dim %d in mode %d", size, m))
		}
		d.head[m] = emptyHeads(nil, size)
	}
	return d
}

func emptyHeads(buf []int32, n int) []int32 {
	if cap(buf) < n {
		buf = make([]int32, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = -1
	}
	return buf
}

// NNZ returns the number of appended entries.
func (d *Delta) NNZ() int { return len(d.vals) }

// Dims returns the current mode sizes (not a copy; do not mutate).
func (d *Delta) Dims() []int { return d.dims }

// Grow extends the mode sizes. Rows gained by a mode start empty;
// existing entries and row threads are untouched. Dims must not
// shrink.
func (d *Delta) Grow(dims []int) {
	if len(dims) != len(d.dims) {
		panic(fmt.Sprintf("layout: Grow with %d dims on order-%d delta", len(dims), len(d.dims)))
	}
	for m, size := range dims {
		if size < d.dims[m] {
			panic(fmt.Sprintf("layout: Grow shrinks mode %d (%d < %d)", m, size, d.dims[m]))
		}
		for i := d.dims[m]; i < size; i++ {
			d.head[m] = append(d.head[m], -1)
		}
		d.dims[m] = size
	}
}

// Append admits one micro-batch: coords is the flat entry-major
// coordinate array (entry e's mode-m coordinate at coords[e*N+m],
// the tensor package's convention) and vals the matching values.
// Coordinates must already be inside the delta's dims — grow first.
func (d *Delta) Append(coords []int32, vals []float64) {
	n := len(d.dims)
	if len(coords) != n*len(vals) {
		panic(fmt.Sprintf("layout: Append with %d coords for %d values of order %d", len(coords), len(vals), n))
	}
	for e := range vals {
		id := int32(len(d.vals))
		d.vals = append(d.vals, vals[e])
		for m := 0; m < n; m++ {
			c := coords[e*n+m]
			if c < 0 || int(c) >= d.dims[m] {
				panic(fmt.Sprintf("layout: coordinate %d out of range [0, %d) in mode %d", c, d.dims[m], m))
			}
			d.coords[m] = append(d.coords[m], c)
			d.next[m] = append(d.next[m], d.head[m][c])
			d.head[m][c] = id
		}
	}
}

// Reset drops every entry but keeps the backing arrays (and the
// current dims), so the next window appends without reallocating.
func (d *Delta) Reset() {
	d.vals = d.vals[:0]
	for m := range d.coords {
		d.coords[m] = d.coords[m][:0]
		d.next[m] = d.next[m][:0]
		d.head[m] = emptyHeads(d.head[m], d.dims[m])
	}
}

// Entry writes entry e's coordinates into buf (allocating when too
// short) and returns them with the value.
func (d *Delta) Entry(e int, buf []int) ([]int, float64) {
	n := len(d.dims)
	if cap(buf) < n {
		buf = make([]int, n)
	}
	buf = buf[:n]
	for m := 0; m < n; m++ {
		buf[m] = int(d.coords[m][e])
	}
	return buf, d.vals[e]
}

// AccumulateRow writes the mode-MTTKRP contribution of every pending
// entry in the given row into acc (length R, whatever it held before):
// acc[c] = Σ_e v · ∏_{k≠mode} factors[k][coord_k][c], each product the
// left-associated ascending-mode chain of the whole-region kernels,
// summed from +0 newest-first (the row thread's order, fixed for a
// given event sequence). factors[mode] is not read, so acc may be a
// row of it. On an order-3 region the row's entries are gathered into
// the Delta's scratch and run through accumulateRow3, the compiled
// layout's row kernel, with the bits of the generic walk other orders
// take.
func (d *Delta) AccumulateRow(acc []float64, factors []*mat.Dense, mode int, row int32) {
	clear(acc)
	r := len(acc)
	d.rowScratch = slices.Grow(d.rowScratch[:0], r)[:r]
	if len(d.dims) == 3 {
		d.accumulateRow3(acc, factors, mode, row)
		return
	}
	tmp := d.rowScratch
	for e := d.head[mode][row]; e >= 0; e = d.next[mode][e] {
		v := d.vals[e]
		for c := range tmp {
			tmp[c] = v
		}
		for k := range d.dims {
			if k == mode {
				continue
			}
			frow := factors[k].Row(int(d.coords[k][e]))
			for c := range tmp {
				tmp[c] *= frow[c]
			}
		}
		for c := range acc {
			acc[c] += tmp[c]
		}
	}
}

// accumulateRow3 is AccumulateRow's order-3 path: it gathers the row's
// entries newest-first and checks the two read factors' shapes, which
// the kernel's raw loads rely on, before handing them to the row
// kernel.
func (d *Delta) accumulateRow3(acc []float64, factors []*mat.Dense, mode int, row int32) {
	a, b := 0, 2
	if mode == 0 {
		a = 1
	} else if mode == 2 {
		b = 1
	}
	mustShape("lead factor", factors[a], d.dims[a], len(acc))
	mustShape("second factor", factors[b], d.dims[b], len(acc))
	vals, ca, cb := d.rowVals[:0], d.rowA[:0], d.rowB[:0]
	for e := d.head[mode][row]; e >= 0; e = d.next[mode][e] {
		vals = append(vals, d.vals[e])
		ca = append(ca, d.coords[a][e])
		cb = append(cb, d.coords[b][e])
	}
	d.rowVals, d.rowA, d.rowB = vals, ca, cb
	accumulateRow3(acc, d.rowScratch, factors[a], factors[b], vals, ca, cb)
}
