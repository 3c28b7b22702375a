//go:build !purego

package layout

import "dismastd/internal/mat"

// regBlock is the widest column block accumulateRow3 keeps in
// registers: eight XMM accumulators of two columns each.
const regBlock = 16

// accumulateRow3 adds one row's MTTKRP contribution to columns [0, w)
// of out, w ≤ regBlock. Each of the n entries (vals[p], ca[p], cb[p])
// adds (v·fa[ca[p]·stride + c])·fb[cb[p]·stride + c] to an accumulator
// that starts at +0, in position order; the accumulator is then added
// to out. fa and fb point at the block's first column of row 0, and
// stride is their row length. Implemented in kernel3_amd64.s.
//
//go:noescape
func accumulateRow3(out, fa, fb *float64, stride int, vals *float64, ca, cb *int32, n, w int)

// accumulateGroups3 is the order-3 fast path: with exactly two
// non-target modes a < b (a is the lead), each entry contributes
// (v·A_a[c_a][c])·A_b[c_b][c] — the same left-associated product chain
// as the generic path, fused into the accumulate. Each row runs through
// accumulateRow3 once per 16-column block, which holds the block's
// accumulator in SSE2 registers for the whole row, two columns (lanes)
// per register and a scalar lane for an odd last column. It uses no
// FMA: every cell computes acc + (v·A_a[c])·A_b[c] one entry at a time,
// in position order, from +0, so the bits equal the COO walk's at every
// GOAMD64 level. SSE2 is the amd64 baseline, so nothing is probed at
// run time. acc is read for its length only.
func (l *ModeLayout) accumulateGroups3(dst *mat.Dense, factors []*mat.Dense, g0, g1 int, acc []float64) {
	r := len(acc)
	a, b := l.others3(dst, factors, r)
	fa, fb := factors[a].Data, factors[b].Data
	ca, cb, vals := l.Coords[a], l.Coords[b], l.Vals
	for g := g0; g < g1; g++ {
		p, p1 := l.RowStarts[g], l.RowStarts[g+1]
		out := dst.Row(int(l.Rows[g]))
		for c := 0; c < r; c += regBlock {
			accumulateRow3(&out[c], &fa[c], &fb[c], r, &vals[p], &ca[p], &cb[p], int(p1-p), min(regBlock, r-c))
		}
	}
}
