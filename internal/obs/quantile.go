package obs

import "time"

// quantile estimates the q-quantile (0 ≤ q ≤ 1) of the snapshot's
// observations by linear interpolation within the bucket that contains
// the target rank — the same estimator Prometheus's histogram_quantile
// uses. The first bucket interpolates from zero (observations here are
// durations and byte counts, never negative). Ranks landing in the
// overflow bucket clamp to the highest finite bound, since the bucket
// is unbounded above. Returns 0 on an empty snapshot.
func (s HistogramSnapshot) quantile(q float64) float64 {
	total := s.Count()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	if len(s.Uppers) == 0 {
		// Only the overflow bucket exists: the mean is the best estimate.
		return s.Sum / float64(total)
	}
	target := q * float64(total)
	var cum int64
	lower := 0.0
	for i, c := range s.Counts {
		prev := float64(cum)
		cum += c
		if float64(cum) >= target && c > 0 {
			if i >= len(s.Uppers) {
				return s.Uppers[len(s.Uppers)-1]
			}
			upper := s.Uppers[i]
			return lower + (upper-lower)*(target-prev)/float64(c)
		}
		if i < len(s.Uppers) {
			lower = s.Uppers[i]
		}
	}
	return s.Uppers[len(s.Uppers)-1]
}

// QuantileDurations returns the q-quantile of a sorted duration slice
// as the element at index ⌊q·n⌋ (clamped). q=0.5 reproduces the
// upper-median the bench reports have always published, so adding tail
// columns doesn't shift the existing p50 series. The input must be
// sorted ascending; the zero-length input yields 0.
func QuantileDurations(sorted []time.Duration, q float64) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(q * float64(n))
	if i < 0 {
		i = 0
	} else if i >= n {
		i = n - 1
	}
	return sorted[i]
}
