package obscluster

import "testing"

// harness builds an aggregator/detector pair and lets tests feed
// per-rank compute measurements directly, bypassing the wire.
type detHarness struct {
	a   *Aggregator
	d   *Detector
	mem []int
}

func newDetHarness(armed bool, m int) *detHarness {
	return &detHarness{
		a:   newAggregator(m),
		d:   newDetector(armed, m),
		mem: identityMembers(m),
	}
}

func (h *detHarness) fence(step int, loads, computeNs []float64) Decision {
	for i, world := range h.mem {
		h.a.ranks[world].computeNs = int64(computeNs[i])
	}
	return h.d.evaluate(h.a, h.mem, loads, step)
}

func TestDetectorUniformIsQuiet(t *testing.T) {
	h := newDetHarness(true, 3)
	for step := 0; step < 5; step++ {
		dec := h.fence(step, []float64{100, 100, 100}, []float64{1e6, 1e6, 1e6})
		if dec.Suggested || dec.Fire || dec.CV != 0 {
			t.Fatalf("step %d: uniform cluster produced %+v", step, dec)
		}
	}
}

func TestDetectorSuggestsWithoutArming(t *testing.T) {
	h := newDetHarness(false, 3)
	dec := h.fence(0, []float64{300, 100, 50}, []float64{1e6, 1e6, 1e6})
	if !dec.Suggested {
		t.Fatalf("skewed loads (CV %v) not suggested", dec.LoadCV)
	}
	if dec.Fire {
		t.Fatal("disarmed detector fired")
	}
	if dec.CV != dec.LoadCV || dec.DurCV != 0 {
		t.Fatalf("CV=%v LoadCV=%v DurCV=%v — want CV from the load series", dec.CV, dec.LoadCV, dec.DurCV)
	}
}

func TestDetectorCooldown(t *testing.T) {
	h := newDetHarness(true, 3)
	loads := []float64{300, 100, 50}
	durs := []float64{1e6, 1e6, 1e6}
	fires := []int{}
	for step := 0; step < 10; step++ {
		dec := h.fence(step, loads, durs)
		if !dec.Suggested {
			t.Fatalf("step %d: persistent skew not suggested", step)
		}
		if dec.Fire {
			fires = append(fires, step)
		}
	}
	// Fires at the first crossing, then every cooldown+1 fences.
	want := []int{0, 3, 6, 9}
	if len(fires) != len(want) {
		t.Fatalf("fired at steps %v, want %v", fires, want)
	}
	for i := range want {
		if fires[i] != want[i] {
			t.Fatalf("fired at steps %v, want %v", fires, want)
		}
	}
	snap := h.d.snapshot(Decision{})
	if snap.Suggested != 10 || snap.Fired != 4 || snap.LastFireStep != 9 {
		t.Fatalf("snapshot %+v, want suggested=10 fired=4 lastFire=9", snap)
	}
}

func TestDetectorWeightsSnapToUniform(t *testing.T) {
	h := newDetHarness(true, 3)
	// Compute time tracks planned load exactly: per-nnz cost is uniform,
	// so the skew is a partitioning problem, not a heterogeneity problem
	// — weights snap to 1 and the fired rebalance is a pure LPT re-plan.
	dec := h.fence(0, []float64{300, 100, 50}, []float64{300e3, 100e3, 50e3})
	if !dec.Fire {
		t.Fatalf("no fire: %+v", dec)
	}
	for i, w := range dec.Weights {
		if w != 1 {
			t.Fatalf("weight[%d] = %v, want snap to uniform (all %v)", i, w, dec.Weights)
		}
	}
}

func TestDetectorWeightsClamped(t *testing.T) {
	h := newDetHarness(true, 3)
	// Rank 2 is 100× slower per nnz: raw normalised weights would be
	// ~[0.03, 0.03, 2.9]; the floor clamps the fast ranks to
	// 1/weightClamp.
	dec := h.fence(0, []float64{100, 100, 100}, []float64{1e4, 1e4, 1e6})
	if !dec.Fire {
		t.Fatalf("no fire: %+v", dec)
	}
	w := dec.Weights
	if w[0] != 1.0/weightClamp || w[1] != 1.0/weightClamp {
		t.Fatalf("fast-rank weights %v, want clamped to %v", w, 1.0/weightClamp)
	}
	if w[2] <= 1 || w[2] > weightClamp {
		t.Fatalf("slow-rank weight %v, want in (1, %v]", w[2], weightClamp)
	}
}

func TestDetectorEWMASmoothing(t *testing.T) {
	h := newDetHarness(true, 2)
	// Steady uniform fences, then one transient duration spike: a single
	// spike moves the EWMA only alpha of the way (1e6 → 1.6e6, CV 0.23),
	// so the CV stays under threshold and nothing fires.
	for step := 0; step < 4; step++ {
		h.fence(step, []float64{100, 100}, []float64{1e6, 1e6})
	}
	dec := h.fence(4, []float64{100, 100}, []float64{1e6, 2.2e6})
	if dec.Fire || dec.Suggested {
		t.Fatalf("one-fence spike fired: %+v", dec)
	}
	if dec.DurCV == 0 {
		t.Fatal("spike left no trace in the EWMA")
	}
	// The same skew sustained converges the EWMA onto it and fires.
	var last Decision
	for step := 5; step < 20 && !last.Fire; step++ {
		last = h.fence(step, []float64{100, 100}, []float64{1e6, 2.2e6})
	}
	if !last.Fire {
		t.Fatalf("sustained skew never fired: %+v", last)
	}
}

func TestDetectorZeroSignalWeight(t *testing.T) {
	h := newDetHarness(true, 3)
	// No measured compute at all (e.g. spans disabled): load skew still
	// fires, and with no duration signal every weight defaults to 1.
	dec := h.fence(0, []float64{300, 100, 50}, []float64{0, 0, 0})
	if !dec.Fire {
		t.Fatalf("no fire on load skew alone: %+v", dec)
	}
	for i, w := range dec.Weights {
		if w != 1 {
			t.Fatalf("weight[%d] = %v with zero duration signal, want 1", i, w)
		}
	}
}

func TestDetectorEvaluateAllocFree(t *testing.T) {
	h := newDetHarness(true, 4)
	loads := []float64{400, 100, 80, 60}
	durs := []float64{4e6, 1e6, 0.8e6, 0.6e6}
	step := 0
	pass := func() {
		h.fence(step, loads, durs)
		step++
	}
	pass()
	if allocs := testing.AllocsPerRun(100, pass); allocs != 0 {
		t.Fatalf("detector evaluate allocates %v per fence (including fires), want 0", allocs)
	}
}

// TestDetectorSnapshotReportsSettings: the state document reports the
// detector's fixed threshold and cool-down, and whether it is armed.
func TestDetectorSnapshotReportsSettings(t *testing.T) {
	for _, armed := range []bool{false, true} {
		snap := newDetector(armed, 3).snapshot(Decision{})
		if snap.Threshold != 0.3 || snap.Cooldown != 2 || snap.Armed != armed || snap.LastFireStep != -1 {
			t.Fatalf("armed=%v: snapshot %+v, want threshold 0.3, cooldown 2, no fire", armed, snap)
		}
	}
}
