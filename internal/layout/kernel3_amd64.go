//go:build !purego

package layout

import "dismastd/internal/mat"

// regBlock is the widest column block accumulateBlock3 keeps in
// registers: eight XMM accumulators of two columns each.
const regBlock = 16

// accumulateBlock3 adds one row's MTTKRP contribution to columns [0, w)
// of out, w ≤ regBlock. Each of the n entries (vals[p], ca[p], cb[p])
// adds (v·fa[ca[p]·stride + c])·fb[cb[p]·stride + c] to an accumulator
// that starts at +0, in position order; the accumulator is then added
// to out. fa and fb point at the block's first column of row 0, and
// stride is their row length. Implemented in kernel3_amd64.s.
//
//go:noescape
func accumulateBlock3(out, fa, fb *float64, stride int, vals *float64, ca, cb *int32, n, w int)

// accumulateRow3 is the order-3 row kernel, shared by the compiled
// layout's accumulateGroups3 and the pending region's
// Delta.AccumulateRow: with a < b the two non-target modes, each entry
// (vals[p], ca[p], cb[p]) contributes (v·fa[ca[p]][c])·fb[cb[p]][c] —
// the same left-associated product chain as the generic path, fused
// into the accumulate — and the row's sum, taken from +0 in position
// order, is added to out (length R, the factors' column count). The
// row runs through accumulateBlock3 once per 16-column block, which
// holds the block's accumulator in SSE2 registers for the whole row,
// two columns (lanes) per register and a scalar lane for an odd last
// column. It uses no FMA: every cell computes acc + (v·A_a[c])·A_b[c]
// one entry at a time, so the bits equal the COO walk's at every
// GOAMD64 level. SSE2 is the amd64 baseline, so nothing is probed at
// run time. The scratch argument is the portable loop's; this one keeps
// its accumulator in registers.
//
// The kernel loads factor rows through raw pointers: the caller checks
// that fa and fb hold a row of exactly R columns for every coordinate
// in ca and cb.
func accumulateRow3(out, _ []float64, fa, fb *mat.Dense, vals []float64, ca, cb []int32) {
	n := len(vals)
	if n == 0 {
		return
	}
	ca, cb = ca[:n], cb[:n]
	r := len(out)
	for c := 0; c < r; c += regBlock {
		accumulateBlock3(&out[c], &fa.Data[c], &fb.Data[c], r, &vals[0], &ca[0], &cb[0], n, min(regBlock, r-c))
	}
}
