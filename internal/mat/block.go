package mat

// Kernels over a column-major block: R columns of `stride` floats each,
// column c at blk[c*stride:]. The ALS sweep keeps its live rows in this
// layout (internal/dtd, "live block") so each of its dense phases is a
// handful of long-vector operations whose accumulators stay in
// registers, instead of R-long row operations whose accumulators live
// in memory. Every kernel fixes the order in which an output entry sums
// its terms, so callers can split the block by column range or by
// output entry without changing a bit.

// DotColumnsInto sets dst[j] = Σ_i a[i]·b[j*stride+i] over i < len(a):
// one dot product per entry, each in a single accumulator that starts at
// +0 and sums in ascending i. Four columns share a pass over a; when
// len(dst) is not a multiple of four the last pass is aligned to the end
// and recomputes the columns it overlaps, to the same bits.
func DotColumnsInto(dst, a, b []float64, stride int) {
	n := len(dst)
	if n < 4 {
		for j := range dst {
			bj := b[j*stride:][:len(a)]
			var s float64
			for i, av := range a {
				s += av * bj[i]
			}
			dst[j] = s
		}
		return
	}
	for at := 0; at < n; at += 4 {
		j := min(at, n-4)
		b0 := b[j*stride:][:len(a)]
		b1 := b[(j+1)*stride:][:len(a)]
		b2 := b[(j+2)*stride:][:len(a)]
		b3 := b[(j+3)*stride:][:len(a)]
		var s0, s1, s2, s3 float64
		for i, av := range a {
			s0 += av * b0[i]
			s1 += av * b1[i]
			s2 += av * b2[i]
			s3 += av * b3[i]
		}
		dst[j], dst[j+1], dst[j+2], dst[j+3] = s0, s1, s2, s3
	}
}

// MulColumnsInto sets dst[i] = Σ_k a[k*stride+i]·s[k] over k < len(s):
// one column of (block · S) as len(s) axpys, four a pass, each entry
// summed in ascending k from +0 — MulRowsInto's order for the same
// entry, without its zero-skips (a ±0 term leaves such a sum unchanged).
func MulColumnsInto(dst, a []float64, stride int, s []float64) {
	for i := range dst {
		dst[i] = 0
	}
	k := 0
	for ; k+4 <= len(s); k += 4 {
		a0 := a[k*stride:][:len(dst)]
		a1 := a[(k+1)*stride:][:len(dst)]
		a2 := a[(k+2)*stride:][:len(dst)]
		a3 := a[(k+3)*stride:][:len(dst)]
		s0, s1, s2, s3 := s[k], s[k+1], s[k+2], s[k+3]
		for i, d := range dst {
			dst[i] = d + a0[i]*s0 + a1[i]*s1 + a2[i]*s2 + a3[i]*s3
		}
	}
	for ; k < len(s); k++ {
		ak, sk := a[k*stride:][:len(dst)], s[k]
		for i := range dst {
			dst[i] += ak[i] * sk
		}
	}
}
