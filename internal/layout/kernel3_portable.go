//go:build !amd64 || purego

package layout

import "dismastd/internal/mat"

// accumulateGroups3 is the order-3 fast path: with exactly two
// non-target modes a < b (a is the lead), each entry contributes
// (v·A_a[c_a][c])·A_b[c_b][c] — the same left-associated product chain
// as the generic path, fused into the accumulate. The loop is bound by
// the accumulator's own loads and stores, so it takes four entries per
// pass over acc. Go evaluates acc[c] + t0 + t1 + t2 + t3 left to right,
// and each product is wrapped in an explicit float64 conversion, which
// the spec says rounds it: no target (arm64 would otherwise) fuses a
// multiply into an add. So each cell still adds its entries one at a
// time in position order: the bits equal four separate passes. A
// scalar loop takes the last len % 4 positions of the row.
//
// This is the portable path, built off amd64 and with the purego tag;
// amd64 runs the SSE2 kernel in kernel3_amd64.s.
func (l *ModeLayout) accumulateGroups3(dst *mat.Dense, factors []*mat.Dense, g0, g1 int, acc []float64) {
	a, b := l.others3(dst, factors, len(acc))
	fa, fb := factors[a], factors[b]
	ca, cb, vals := l.Coords[a], l.Coords[b], l.Vals
	// Factor rows are resliced to len(acc) so the column loops below
	// compile without bounds checks.
	r := len(acc)
	for g := g0; g < g1; g++ {
		clear(acc)
		p, p1 := l.RowStarts[g], l.RowStarts[g+1]
		for ; p+4 <= p1; p += 4 {
			v0, v1, v2, v3 := vals[p], vals[p+1], vals[p+2], vals[p+3]
			ra0, rb0 := fa.Row(int(ca[p]))[:r], fb.Row(int(cb[p]))[:r]
			ra1, rb1 := fa.Row(int(ca[p+1]))[:r], fb.Row(int(cb[p+1]))[:r]
			ra2, rb2 := fa.Row(int(ca[p+2]))[:r], fb.Row(int(cb[p+2]))[:r]
			ra3, rb3 := fa.Row(int(ca[p+3]))[:r], fb.Row(int(cb[p+3]))[:r]
			for c := range acc {
				acc[c] = acc[c] + float64(v0*ra0[c]*rb0[c]) + float64(v1*ra1[c]*rb1[c]) + float64(v2*ra2[c]*rb2[c]) + float64(v3*ra3[c]*rb3[c])
			}
		}
		for ; p < p1; p++ {
			v := vals[p]
			ra, rb := fa.Row(int(ca[p]))[:r], fb.Row(int(cb[p]))[:r]
			for c := range acc {
				acc[c] += float64(v * ra[c] * rb[c])
			}
		}
		out := dst.Row(int(l.Rows[g]))
		for c := range out {
			out[c] += acc[c]
		}
	}
}
