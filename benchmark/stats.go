package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of vs by linear interpolation
// between order statistics. vs is not modified. An empty sample is 0.
func quantile(vs []float64, q float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// tailPercentile returns the highest percentile of vs that still has at
// least ten samples beyond it, capped at p99, together with the
// percentile used (e.g. 99, 95.2). With fewer than twenty samples no
// percentile above the median qualifies and the median is returned
// with pct 50: a tail cannot be stated from that few samples.
func tailPercentile(vs []float64) (value, pct float64) {
	n := len(vs)
	if n < 20 {
		return median(vs), 50
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	// The order statistic at index k has n-1-k samples beyond it.
	k := n - 11
	if p99 := int(math.Ceil(0.99*float64(n))) - 1; p99 < k {
		k = p99
	}
	return s[k], 100 * float64(k+1) / float64(n)
}

// iqrShare returns (Q3−Q1)/|median| the way the acceptance check
// computes it: quartiles by the exclusive method Python's
// statistics.quantiles(values, n=4) uses.
func iqrShare(vs []float64) float64 {
	n := len(vs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (at(0.75) - at(0.25)) / math.Abs(med)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func memStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// relDiff is |a−b| relative to the larger magnitude (0 when both are 0).
func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	if d == 0 {
		return 0
	}
	return d / math.Max(math.Abs(a), math.Abs(b))
}
