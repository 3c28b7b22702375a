package core

// Chaos test for detector-driven live rebalancing: a stream whose
// members have (scripted) heterogeneous compute speed must trip the
// observability plane's imbalance detector, re-partition exactly once
// at a fence — an epoch bump with no membership change and zero
// migration traffic — and come out both better balanced and at the
// same fit as an uninterrupted run.

import (
	"math"
	"sync"
	"testing"

	"dismastd/internal/dtd"
	obscluster "dismastd/internal/obs/cluster"
	"dismastd/internal/tensor"
)

// rebalanceSeq builds a longer stream than elasticSeq — seven steps —
// so the detector has fences to fire on and then demonstrably settle
// after the re-partition.
func rebalanceSeq(t *testing.T, rank int) (*dtd.State, []*tensor.Tensor) {
	t.Helper()
	full := sparseRandom([]int{26, 24, 22}, 3000, 71)
	shapes := make([][]int, 8)
	for i := range shapes {
		shapes[i] = []int{19 + i, 17 + i, 15 + i}
	}
	seq, err := tensor.NewSequence(full, shapes)
	if err != nil {
		t.Fatal(err)
	}
	prev := initState(t, seq.Snapshot(0), rank, 73)
	snaps := make([]*tensor.Tensor, 0, seq.Len()-1)
	for i := 1; i < seq.Len(); i++ {
		snaps = append(snaps, seq.Snapshot(i))
	}
	return prev, snaps
}

// TestRebalanceOnImbalanceChaos: three members, one scripted to burn
// 3x the compute nanoseconds per unit of assigned load. The detector's
// CV must cross the threshold, exactly one rebalance must fire (the
// weighted plan leaves no skew to refire on), the post-rebalance
// imbalance must fall back under the threshold, and the final fit must
// track a uniform-speed reference run within 1e-6 relative —
// re-partitioning only regroups floating-point reductions, it never
// changes the maths.
func TestRebalanceOnImbalanceChaos(t *testing.T) {
	const r = 3
	const threshold = 0.25
	prev, snaps := rebalanceSeq(t, r)
	o := elasticBase(3)
	o.MaxIters = 10
	_, refLoss := referenceRun(t, prev, snaps, 3, o.Options)

	// Ranks 0 and 1 burn 48µs per load unit, rank 2 burns 144µs: the
	// padding dwarfs the real per-sweep kernels, so the duration CV the
	// detector sees approaches the CV of {1,1,3} ≈ 0.57 — about 0.47
	// under -race, whose slower kernels dilute it — comfortably over the
	// detector's 0.3, and the derived cost weights are ≈ {0.6, 0.6, 1.8}.
	o.slowRanks = map[int]float64{0: 48e3, 1: 48e3, 2: 144e3}
	o.RebalanceOnImbalance = true
	var mu sync.Mutex
	planes := map[int]*obscluster.Plane{}
	o.PlaneReady = func(world int, p *obscluster.Plane) {
		mu.Lock()
		planes[world] = p
		mu.Unlock()
	}

	job, err := NewElasticJob(prev, snaps, o)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := runElastic(t, job, 3)
	if err != nil {
		t.Fatal(err)
	}
	final, gotLoss, transitions, err := job.Result()
	if err != nil {
		t.Fatal(err)
	}
	if final == nil || len(final.Factors) != 3 {
		t.Fatalf("final state = %+v", final)
	}

	// Exactly one transition, and it is the detector's: an epoch bump
	// with the same members, a CV over the threshold, and zero bytes —
	// at fences every member already holds the synced state.
	if len(transitions) != 1 {
		t.Fatalf("recorded %d transitions, want exactly 1 rebalance: %+v", len(transitions), transitions)
	}
	tr := transitions[0]
	if !tr.Rebalance {
		t.Fatalf("transition is not a rebalance: %+v", tr)
	}
	if tr.CV <= threshold {
		t.Fatalf("rebalance fired at CV %v, threshold %v", tr.CV, threshold)
	}
	if tr.Epoch != 1 || len(tr.Dead)+len(tr.Join)+len(tr.Leave) != 0 {
		t.Fatalf("rebalance transition = %+v, want epoch 1 with unchanged members", tr)
	}
	if tr.BytesSent != 0 {
		t.Fatalf("rebalance cost %d bytes, want zero", tr.BytesSent)
	}

	// Every member counted exactly one rebalance epoch.
	for world := 0; world < 3; world++ {
		c := stats.Ranks[world].Obs.Metrics.Counters
		if c["elastic.rebalances"] != 1 {
			t.Fatalf("rank %d counted %d rebalances, want 1", world, c["elastic.rebalances"])
		}
		if c["elastic.epochs"] != 1 {
			t.Fatalf("rank %d counted %d epochs, want 1", world, c["elastic.epochs"])
		}
	}

	// The coordinator's detector fired once — the weighted plan left no
	// skew to refire on — and by the final fence the smoothed CV
	// has dropped back under the threshold: the weighted plan fixed the
	// imbalance it was derived from.
	det := planes[0].Snapshot().Detector
	if det.Fired != 1 {
		t.Fatalf("detector fired %d times, want exactly 1", det.Fired)
	}
	if det.Suggested < det.Fired {
		t.Fatalf("detector suggested %d < fired %d", det.Suggested, det.Fired)
	}
	if det.CV >= threshold {
		t.Fatalf("post-rebalance CV %v did not drop under the threshold %v (fired at %v)", det.CV, threshold, tr.CV)
	}
	if det.CV >= tr.CV {
		t.Fatalf("imbalance did not improve: CV %v at fire, %v at the end", tr.CV, det.CV)
	}

	// Fit: within 1e-6 relative of the uniform-speed reference.
	if d := math.Abs(gotLoss-refLoss) / refLoss; d > 1e-6 {
		t.Fatalf("final loss %v diverges from reference %v by %v relative", gotLoss, refLoss, d)
	}

	// Epoch stamping across the transition: the merged timeline must
	// hold spans from both epochs, and the scripted handicap spans —
	// recorded every step — must appear re-stamped with the new epoch
	// after the rebalance.
	perEpoch := map[int64]int{}
	chaosEpochs := map[int64]int{}
	for _, ev := range planes[0].Timeline() {
		perEpoch[ev.Epoch]++
		if ev.Name == "chaos/mttkrp" {
			chaosEpochs[ev.Epoch]++
		}
	}
	if perEpoch[0] == 0 || perEpoch[1] == 0 {
		t.Fatalf("timeline spans per epoch = %v, want both pre- and post-transition epochs", perEpoch)
	}
	if chaosEpochs[1] == 0 {
		t.Fatalf("no post-rebalance handicap spans stamped with epoch 1: %v", chaosEpochs)
	}
}

// TestElasticPlaneKeepsMathsBitwise: turning the plane on (detector
// disarmed) must not change a single bit of the decomposition — the
// fence is pure observation.
func TestElasticPlaneKeepsMathsBitwise(t *testing.T) {
	prev, snaps := elasticSeq(t, 3)
	o := elasticBase(3)
	_, refLoss := referenceRun(t, prev, snaps, 3, o.Options)

	job, err := NewElasticJob(prev, snaps, o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runElastic(t, job, 3); err != nil {
		t.Fatal(err)
	}
	_, gotLoss, transitions, err := job.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(transitions) != 0 {
		t.Fatalf("disarmed plane recorded %d transitions", len(transitions))
	}
	if gotLoss != refLoss {
		t.Fatalf("plane-enabled loss %v, reference %v — observation changed the maths", gotLoss, refLoss)
	}
}
