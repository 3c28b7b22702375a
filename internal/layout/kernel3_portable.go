//go:build !amd64 || purego

package layout

import "dismastd/internal/mat"

// accumulateRow3 is the order-3 row kernel, shared by the compiled
// layout's accumulateGroups3 and the pending region's
// Delta.AccumulateRow: with a < b the two non-target modes, each entry
// (vals[p], ca[p], cb[p]) contributes (v·fa[ca[p]][c])·fb[cb[p]][c] —
// the same left-associated product chain as the generic path, fused
// into the accumulate — and the row's sum, taken from +0 in position
// order in the R-sized scratch acc, is added to out (length R). The
// loop is bound by the accumulator's own loads and stores, so it takes
// four entries per pass over acc. Go evaluates acc[c] + t0 + t1 + t2 +
// t3 left to right, and each product is wrapped in an explicit float64
// conversion, which the spec says rounds it: no target (arm64 would
// otherwise) fuses a multiply into an add. So each cell still adds its
// entries one at a time in position order: the bits equal four
// separate passes. A scalar loop takes the last len % 4 positions of
// the row.
//
// This is the portable path, built off amd64 and with the purego tag;
// amd64 runs the SSE2 kernel in kernel3_amd64.s.
func accumulateRow3(out, acc []float64, fa, fb *mat.Dense, vals []float64, ca, cb []int32) {
	// Factor rows are resliced to R so the column loops below compile
	// without bounds checks.
	r := len(out)
	acc = acc[:r]
	clear(acc)
	n := len(vals)
	ca, cb = ca[:n], cb[:n]
	p := 0
	for ; p+4 <= n; p += 4 {
		v0, v1, v2, v3 := vals[p], vals[p+1], vals[p+2], vals[p+3]
		ra0, rb0 := fa.Row(int(ca[p]))[:r], fb.Row(int(cb[p]))[:r]
		ra1, rb1 := fa.Row(int(ca[p+1]))[:r], fb.Row(int(cb[p+1]))[:r]
		ra2, rb2 := fa.Row(int(ca[p+2]))[:r], fb.Row(int(cb[p+2]))[:r]
		ra3, rb3 := fa.Row(int(ca[p+3]))[:r], fb.Row(int(cb[p+3]))[:r]
		for c := range acc {
			acc[c] = acc[c] + float64(v0*ra0[c]*rb0[c]) + float64(v1*ra1[c]*rb1[c]) + float64(v2*ra2[c]*rb2[c]) + float64(v3*ra3[c]*rb3[c])
		}
	}
	for ; p < n; p++ {
		v := vals[p]
		ra, rb := fa.Row(int(ca[p]))[:r], fb.Row(int(cb[p]))[:r]
		for c := range acc {
			acc[c] += float64(v * ra[c] * rb[c])
		}
	}
	for c := range out {
		out[c] += acc[c]
	}
}
