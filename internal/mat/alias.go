package mat

import "fmt"

// Aliasing contract
// -----------------
// Every in-place kernel documents which of its inputs the destination
// may alias, and panics — rather than silently miscomputing — when the
// contract is violated:
//
//   - Elementwise kernels (Add, Sub, Scale, AddScaled, Hadamard,
//     CopyFrom, HadamardAllInto): dst may be exactly one of the inputs
//     (same backing slice, same length). Partial overlap — e.g. shifted
//     SliceRows views of the same array — would read just-written
//     values, so it panics.
//   - Gather/scatter kernels whose output cells mix many input cells
//     (MulInto, GramInto, CrossGramInto, AccumulateCrossGram,
//     TransposeInto, CholeskyInto): dst must not overlap any input at
//     all.
//   - SolveSPDInto: dst may alias b (the right-hand side is copied into
//     dst before the factorisation is applied), never a.
//   - SolveRightRidgeInto: dst may alias m (m is transposed into
//     workspace scratch before dst is written), never d.
//
// The checks are O(1) pointer comparisons — no allocation, no unsafe —
// so they stay on in the hot path.

// overlaps reports whether two slices share any backing memory. Slices
// of the same backing array agree on the address of the array's final
// element (reached by re-slicing to capacity); slices of different
// arrays cannot. Given a shared array of length L, a slice with length
// l and capacity c covers elements [L-c, L-c+l).
func overlaps(a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	af, bf := a[:cap(a)], b[:cap(b)]
	if &af[len(af)-1] != &bf[len(bf)-1] {
		return false // different backing arrays
	}
	return cap(a)-len(a) < cap(b) && cap(b)-len(b) < cap(a)
}

// exactAlias reports whether a and b are the very same region (same
// start, same length) — the one overlap the elementwise kernels allow.
func exactAlias(a, b []float64) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// Overlaps reports whether two matrices share any backing memory,
// including partial overlap through SliceRows views.
func Overlaps(a, b *Dense) bool { return overlaps(a.Data, b.Data) }

// mustDisjoint panics when dst shares any memory with src — required by
// kernels whose output cells mix many input cells.
func mustDisjoint(op string, dst, src *Dense) {
	if overlaps(dst.Data, src.Data) {
		panic(fmt.Sprintf("mat: %s destination aliases an input", op))
	}
}

// mustElementwiseAlias panics when dst partially overlaps src: an
// elementwise kernel tolerates dst == src exactly, nothing in between.
func mustElementwiseAlias(op string, dst, src *Dense) {
	if overlaps(dst.Data, src.Data) && !exactAlias(dst.Data, src.Data) {
		panic(fmt.Sprintf("mat: %s destination partially overlaps an input", op))
	}
}
