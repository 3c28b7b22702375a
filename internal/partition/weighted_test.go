package partition

import (
	"math"
	"testing"
)

func TestWeightedLPTUniformMatchesLPTBalance(t *testing.T) {
	slices := []int64{512, 256, 128, 64, 32, 16, 8, 4, 2, 1}
	uniform := []float64{1, 1, 1}
	wp := WeightedLPT(slices, uniform, 3)
	mp := MTP(slices, 3)
	if wp.maxLoad() != mp.maxLoad() {
		t.Fatalf("uniform WeightedLPT makespan %d != MTP makespan %d", wp.maxLoad(), mp.maxLoad())
	}
	var total int64
	for _, l := range wp.Loads {
		total += l
	}
	if want := int64(1023); total != want {
		t.Fatalf("loads sum %d, want %d", total, want)
	}
}

// TestWeightedLPTRespectsSpeeds: a partition twice as expensive per nnz
// should end with roughly half the load of the cheap ones.
func TestWeightedLPTRespectsSpeeds(t *testing.T) {
	slices := make([]int64, 64)
	for i := range slices {
		slices[i] = 10
	}
	weights := []float64{1, 1, 2} // partition 2 is half speed
	p := WeightedLPT(slices, weights, 3)
	if p.Loads[2] >= p.Loads[0] || p.Loads[2] >= p.Loads[1] {
		t.Fatalf("slow partition got loads %v, want the smallest share", p.Loads)
	}
	// Weighted completion times should be close to balanced.
	var costs []float64
	for q, l := range p.Loads {
		costs = append(costs, weights[q]*float64(l))
	}
	if cv := ImbalanceCV(costs); cv > 0.1 {
		t.Fatalf("weighted completion CV = %v, want < 0.1 (costs %v)", cv, costs)
	}
}

func TestWeightedLPTDeterministic(t *testing.T) {
	slices := []int64{7, 7, 7, 3, 3, 0, 0, 5}
	w := []float64{1.5, 1, 1.25}
	a := WeightedLPT(slices, w, 3)
	b := WeightedLPT(slices, w, 3)
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatalf("nondeterministic assignment at slice %d: %d vs %d", i, a.Assign[i], b.Assign[i])
		}
	}
}

func TestWeightedLPTSpreadsEmptySlices(t *testing.T) {
	slices := []int64{100, 0, 0, 0, 0, 0, 0}
	p := WeightedLPT(slices, []float64{1, 1, 1}, 3)
	counts := make([]int, 3)
	for _, q := range p.Assign {
		counts[q]++
	}
	for q, c := range counts {
		if c == 0 {
			t.Fatalf("partition %d got no slices: counts %v", q, counts)
		}
	}
}

func TestWeightedLPTValidatesWeights(t *testing.T) {
	for _, bad := range [][]float64{{1, 1}, {1, 0, 1}, {1, -2, 1}, {1, math.Inf(1), 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("weights %v did not panic", bad)
				}
			}()
			WeightedLPT([]int64{1, 2, 3}, bad, 3)
		}()
	}
}

// TestImbalanceCVMatchesIntStatistic: the float and int64 entry points
// must agree bit for bit on the same loads — the detector's fence-time
// CV is meant to be directly comparable to the planning-time gauges.
func TestImbalanceCVMatchesIntStatistic(t *testing.T) {
	loads := []int64{512, 384, 127}
	f := make([]float64, len(loads))
	for i, l := range loads {
		f[i] = float64(l)
	}
	if got, want := ImbalanceCV(f), ImbalanceStdDev(loads); got != want {
		t.Fatalf("ImbalanceCV = %v, ImbalanceStdDev = %v", got, want)
	}
	if ImbalanceCV(nil) != 0 || ImbalanceCV([]float64{0, 0}) != 0 {
		t.Fatal("degenerate inputs should read 0")
	}
}

func TestImbalanceCVAllocFree(t *testing.T) {
	loads := []float64{512, 384, 127, 300}
	if allocs := testing.AllocsPerRun(100, func() { ImbalanceCV(loads) }); allocs != 0 {
		t.Errorf("ImbalanceCV allocates %v times, want 0", allocs)
	}
}
