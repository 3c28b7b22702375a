package obs

import (
	"math"
	"testing"
	"time"
)

func TestHistogramQuantileInterpolates(t *testing.T) {
	h := newHistogram([]float64{10, 20, 40})
	// 10 observations uniform in (0,10], 10 in (10,20], none above.
	for i := 0; i < 10; i++ {
		h.Observe(5)
		h.Observe(15)
	}
	s := h.snapshot()
	// p50 rank = 10 of 20, the boundary of the first bucket.
	if got := s.quantile(0.50); math.Abs(got-10) > 1e-9 {
		t.Fatalf("p50 = %v, want 10", got)
	}
	// p75 rank = 15 of 20: halfway through the (10,20] bucket.
	if got := s.quantile(0.75); math.Abs(got-15) > 1e-9 {
		t.Fatalf("p75 = %v, want 15", got)
	}
	if got := s.quantile(1.0); math.Abs(got-20) > 1e-9 {
		t.Fatalf("p100 = %v, want 20 (upper bound of last occupied bucket)", got)
	}
}

func TestHistogramQuantileOverflowClamps(t *testing.T) {
	h := newHistogram([]float64{10})
	h.Observe(5)
	h.Observe(1e6) // overflow bucket
	s := h.snapshot()
	if got := s.quantile(0.99); got != 10 {
		t.Fatalf("p99 with overflow mass = %v, want clamp to highest bound 10", got)
	}
}

func TestHistogramQuantileEmpty(t *testing.T) {
	var s HistogramSnapshot
	if got := s.quantile(0.5); got != 0 {
		t.Fatalf("empty snapshot quantile = %v, want 0", got)
	}
}

func TestQuantileDurationsMatchesLegacyMedian(t *testing.T) {
	ds := []time.Duration{1, 2, 3, 4, 5, 6}
	// The bench tables have always reported sorted[len/2]; p50 must not move.
	if got, want := QuantileDurations(ds, 0.5), ds[len(ds)/2]; got != want {
		t.Fatalf("p50 = %v, want %v", got, want)
	}
	if got := QuantileDurations(ds, 0.99); got != 6 {
		t.Fatalf("p99 = %v, want 6", got)
	}
	if got := QuantileDurations(nil, 0.5); got != 0 {
		t.Fatalf("empty p50 = %v, want 0", got)
	}
}
