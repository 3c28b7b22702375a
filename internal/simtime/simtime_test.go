package simtime

import (
	"testing"
	"time"

	"dismastd/internal/cluster"
)

func statsFor(works []float64, bytes []int64) *cluster.RunStats {
	s := &cluster.RunStats{}
	for i := range works {
		rs := cluster.RankStats{Work: works[i]}
		rs.BytesSent = bytes[i]
		rs.MsgsSent = 1
		s.Ranks = append(s.Ranks, rs)
	}
	return s
}

func TestStragglerDominatesCompute(t *testing.T) {
	m := Model{ComputeRate: 100, Bandwidth: 1e12, Latency: 0, Startup: 0}
	// Work {100, 400}: the straggler takes 4s regardless of the total.
	got := m.estimate(statsFor([]float64{100, 400}, []int64{0, 0}), 1, 1)
	if got != 4*time.Second {
		t.Fatalf("estimate %v, want 4s", got)
	}
}

func TestStartupChargedPerIteration(t *testing.T) {
	m := Model{ComputeRate: 1e12, Bandwidth: 1e12, Startup: 100 * time.Millisecond}
	one := m.estimate(statsFor([]float64{1}, []int64{0}), 1, 1)
	ten := m.estimate(statsFor([]float64{1}, []int64{0}), 10, 1)
	if ten-one < 890*time.Millisecond {
		t.Fatalf("10 iters %v vs 1 iter %v: startup not charged per sweep", ten, one)
	}
}

func TestNetworkTerm(t *testing.T) {
	m := Model{ComputeRate: 1e12, Bandwidth: 1000, Latency: 0, Startup: 0}
	got := m.estimate(statsFor([]float64{0}, []int64{5000}), 1, 1)
	if got != 5*time.Second {
		t.Fatalf("network estimate %v, want 5s", got)
	}
}

func TestPerIteration(t *testing.T) {
	m := Model{ComputeRate: 100, Bandwidth: 1e12, Startup: 0}
	st := statsFor([]float64{1000}, []int64{0})
	if per := m.PerIteration(st, 10, 1); per != time.Second {
		t.Fatalf("per-iteration %v, want 1s", per)
	}
}

func TestMoreWorkersReduceEstimate(t *testing.T) {
	// Splitting the same total work across more ranks must reduce the
	// estimate until startup dominates — the Fig. 7 shape.
	m := Default()
	est := func(workers int) time.Duration {
		works := make([]float64, workers)
		bytes := make([]int64, workers)
		for i := range works {
			works[i] = 4e9 / float64(workers)
			bytes[i] = 1e6
		}
		return m.estimate(statsFor(works, bytes), 10, 1)
	}
	t3, t15 := est(3), est(15)
	if t15 >= t3 {
		t.Fatalf("15 workers (%v) not faster than 3 (%v)", t15, t3)
	}
	// Diminishing returns: the speedup is bounded by the startup floor.
	if t15 < 10*Default().Startup {
		t.Fatalf("estimate %v below the startup floor", t15)
	}
}

func TestItersClamped(t *testing.T) {
	m := Default()
	st := statsFor([]float64{100}, []int64{100})
	if m.estimate(st, 0, 1) != m.estimate(st, 1, 1) {
		t.Fatal("iters=0 not clamped to 1")
	}
	if m.PerIteration(st, 0, 1) != m.estimate(st, 1, 1) {
		t.Fatal("PerIteration iters=0 not clamped")
	}
}

func TestWaves(t *testing.T) {
	cases := []struct{ parts, workers, want int }{
		{8, 15, 1}, {15, 15, 1}, {16, 15, 2}, {30, 15, 2}, {38, 15, 3}, {5, 0, 1},
	}
	for _, c := range cases {
		if got := Waves(c.parts, c.workers); got != c.want {
			t.Fatalf("Waves(%d, %d) = %d, want %d", c.parts, c.workers, got, c.want)
		}
	}
}

func TestWavesIncreaseEstimate(t *testing.T) {
	m := Default()
	st := statsFor([]float64{100}, []int64{100})
	if m.estimate(st, 10, 3) <= m.estimate(st, 10, 1) {
		t.Fatal("extra scheduling waves must cost time")
	}
}
