package core

// Chaos tests for the elastic multi-step driver: membership changes —
// scripted crashes mid-step, joins and drains at fences — must leave
// the decomposition's convergence intact (fit within 1e-6 relative of
// an uninterrupted run), move only the factor rows that changed owner,
// and cost nothing when membership is static (bitwise-identical to the
// sequential Step driver).

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"dismastd/internal/cluster"
	"dismastd/internal/dplan"
	"dismastd/internal/dtd"
	"dismastd/internal/mat"
	"dismastd/internal/partition"
	"dismastd/internal/tensor"
)

// elasticSeq builds a growing snapshot stream and its initial state.
func elasticSeq(t *testing.T, rank int) (*dtd.State, []*tensor.Tensor) {
	t.Helper()
	full := sparseRandom([]int{26, 24, 22}, 3000, 71)
	seq, err := tensor.NewSequence(full, [][]int{{18, 17, 16}, {21, 20, 19}, {24, 22, 20}, {26, 24, 22}})
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

func elasticBase(world, members int) ElasticOptions {
	return ElasticOptions{
		Options: Options{Rank: 3, MaxIters: 30, Tol: 1e-10, Mu: 0.8, Seed: 21, Method: partition.MTPMethod},
		World:   world,
		Members: members,
	}
}

// referenceRun chains the static Step driver over the same snapshots
// and returns the final state and final step loss.
func referenceRun(t *testing.T, prev *dtd.State, snaps []*tensor.Tensor, workers int, o Options) (*dtd.State, float64) {
	t.Helper()
	var loss float64
	for i, snap := range snaps {
		o.Workers = workers
		o.Parts = workers
		st, stats, err := Step(prev, snap, o)
		if err != nil {
			t.Fatalf("reference step %d: %v", i, err)
		}
		prev, loss = st, stats.Loss
	}
	return prev, loss
}

func runElastic(t *testing.T, j *ElasticJob, world int) (*cluster.RunStats, error) {
	t.Helper()
	c := cluster.NewLocal(world)
	c.SetElastic(true)
	c.SetRecvTimeout(60 * time.Second)
	return c.Run(j.RunWorker)
}

// TestElasticStaticMatchesStepBitwise: with no membership events the
// elastic driver must reproduce the sequential Step driver bitwise —
// elasticity is pay-for-what-you-use.
func TestElasticStaticMatchesStepBitwise(t *testing.T) {
	prev, snaps := elasticSeq(t, 3)
	o := elasticBase(3, 3)
	ref, refLoss := referenceRun(t, prev, snaps, 3, o.Options)

	job, err := NewElasticJob(prev, snaps, o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runElastic(t, job, 3); err != nil {
		t.Fatal(err)
	}
	got, gotLoss, transitions, err := job.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(transitions) != 0 {
		t.Fatalf("static run recorded %d transitions", len(transitions))
	}
	if gotLoss != refLoss {
		t.Fatalf("static elastic loss %v, reference %v", gotLoss, refLoss)
	}
	for m := range got.Factors {
		if d := mat.MaxAbsDiff(got.Factors[m], ref.Factors[m]); d != 0 {
			t.Fatalf("mode %d diverges from the static driver by %g", m, d)
		}
	}
}

// TestElasticKillAndJoinMidStream is the headline chaos test: world of
// 4 ranks streams 3 steps with 3 members; rank 1 crashes mid-sweep in
// step 1, the survivors finish the step degraded, and spare rank 3 is
// admitted at step 2's fence as a warm-started replacement. The final
// fit must track an uninterrupted run within 1e-6 relative, and the
// recovery must ship zero factor rows (pure local absorption) — only
// the subscription refresh and the joiner's boot state cross the wire,
// byte-for-byte accounted.
func TestElasticKillAndJoinMidStream(t *testing.T) {
	const r = 3
	prev, snaps := elasticSeq(t, r)
	o := elasticBase(4, 3)
	_, refLoss := referenceRun(t, prev, snaps, 3, o.Options)

	o.KillAtStep = map[int]int{1: 1}
	o.JoinAtStep = map[int]int{2: 3}
	job, err := NewElasticJob(prev, snaps, o)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := runElastic(t, job, 4)
	if !errors.Is(err, ErrScriptedCrash) {
		t.Fatalf("run error = %v, want the scripted crash", err)
	}
	final, gotLoss, transitions, err := job.Result()
	if err != nil {
		t.Fatal(err)
	}
	if final.Dims[0] != snaps[2].Dims[0] {
		t.Fatalf("final state dims %v", final.Dims)
	}
	if rel := math.Abs(gotLoss-refLoss) / refLoss; rel > 1e-6 {
		t.Fatalf("elastic fit %v vs uninterrupted %v (relative %g)", gotLoss, refLoss, rel)
	}

	if len(transitions) != 2 {
		t.Fatalf("recorded %d transitions, want 2 (recovery + join): %+v", len(transitions), transitions)
	}
	rec, join := transitions[0], transitions[1]

	// Recovery transition: epoch 1, rank 1 dead during step 1, and the
	// shrink moved nothing — every dead-owned row was absorbed from the
	// survivors' local replicas at zero wire cost.
	oldView := cluster.InitialView(3)
	newView := cluster.ViewChange{Dead: []int{1}}.Apply(oldView)
	comp := snaps[1].Complement(snaps[0].Dims)
	oldPlan := dplan.Build(comp, 3, 3, o.Method)
	newPlan, err := dplan.RebuildRebalanced(oldPlan, oldView, newView)
	if err != nil {
		t.Fatal(err)
	}
	delta := dplan.ComputeDelta(oldPlan, oldView, newPlan, newView)
	wantAbsorbed := 0
	for m := range oldPlan.Dims {
		wantAbsorbed += len(oldPlan.OwnedSlices[m][1])
	}
	if rec.Epoch != 1 || rec.Step != 1 || len(rec.Dead) != 1 || rec.Dead[0] != 1 {
		t.Fatalf("recovery transition = %+v", rec)
	}
	if rec.MovedRows != 0 || delta.MovedRows() != 0 {
		t.Fatalf("recovery moved %d rows (delta says %d), want 0", rec.MovedRows, delta.MovedRows())
	}
	if rec.AbsorbedRows != wantAbsorbed {
		t.Fatalf("absorbed %d rows, dead rank owned %d", rec.AbsorbedRows, wantAbsorbed)
	}
	// Exact byte accounting: zero migration bytes, so the transition's
	// traffic is exactly the post-recovery subscription refresh under
	// the epoch-1 plan.
	wantBytes := int64(0)
	for m := range newPlan.Dims {
		tag := int64(len("v1|rows/0")) // epoch-fenced stream tag, single-digit modes
		for owner := 0; owner < newPlan.Workers; owner++ {
			for sub := 0; sub < newPlan.Workers; sub++ {
				rows := newPlan.SendLists[m][owner][sub]
				if owner == sub || len(rows) == 0 {
					continue
				}
				wantBytes += int64(8*r*len(rows)) + tag + 8
			}
		}
	}
	if rec.BytesSent != wantBytes {
		t.Fatalf("recovery sent %d bytes, want %d (refresh only)", rec.BytesSent, wantBytes)
	}

	// Join transition: epoch 2 admits spare 3 at step 2's fence; the
	// only traffic is the joiner's warm-start state, one message per
	// mode from view rank 0.
	if join.Epoch != 2 || join.Step != 2 || len(join.Join) != 1 || join.Join[0] != 3 {
		t.Fatalf("join transition = %+v", join)
	}
	wantBoot := int64(0)
	for _, d := range snaps[1].Dims {
		wantBoot += int64(8*d*r) + int64(len("v2|boot/0")) + 8
	}
	// Plus the detector weight table — empty here (no rebalance has
	// fired), so the boot/w message is tag + accounting overhead only.
	wantBoot += int64(len("v2|boot/w")) + 8
	if join.BytesSent != wantBoot {
		t.Fatalf("join sent %d bytes, want %d (boot state only)", join.BytesSent, wantBoot)
	}

	// Per-rank instrumentation: both survivors recovered exactly once
	// and migrated nothing; the joiner adopted one epoch.
	for _, world := range []int{0, 2} {
		c := stats.Ranks[world].Obs.Metrics.Counters
		if c["elastic.recoveries"] != 1 {
			t.Fatalf("rank %d recoveries = %d, want 1", world, c["elastic.recoveries"])
		}
		if c["elastic.migrate.rows"] != 0 {
			t.Fatalf("rank %d migrated %d rows, want 0", world, c["elastic.migrate.rows"])
		}
	}
	if c := stats.Ranks[3].Obs.Metrics.Counters; c["elastic.epochs"] != 1 {
		t.Fatalf("joiner epochs = %d, want 1", c["elastic.epochs"])
	}
}

// TestElasticFailPolicyStopsOnPeerDown: under FailOnPeerDown the same
// scripted kill is fatal instead of absorbed — every survivor returns a
// typed peer-down error, no transition is recorded, and the checkpoint
// hook has seen exactly the completed step, whose state a resumed run
// carries to the uninterrupted result bit for bit.
func TestElasticFailPolicyStopsOnPeerDown(t *testing.T) {
	prev, snaps := elasticSeq(t, 3)
	o := elasticBase(3, 3)
	ref, _ := referenceRun(t, prev, snaps, 3, o.Options)

	o.KillAtStep = map[int]int{1: 1}
	o.FailOnPeerDown = true
	var saved []*dtd.State // view rank 0 only: no lock needed
	o.Checkpoint = func(step int, st *dtd.State, _ *StepStats) error {
		saved = append(saved, st)
		return nil
	}
	job, err := NewElasticJob(prev, snaps, o)
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, 3)
	c := cluster.NewLocal(3)
	c.SetElastic(true)
	c.SetRecvTimeout(60 * time.Second)
	c.Run(func(w *cluster.Worker) error {
		errs[w.Rank()] = job.RunWorker(w)
		return errs[w.Rank()]
	})
	if !errors.Is(errs[1], ErrScriptedCrash) {
		t.Fatalf("victim error = %v, want the scripted crash", errs[1])
	}
	for _, world := range []int{0, 2} {
		if _, ok := cluster.AsPeerDown(errs[world]); !ok {
			t.Fatalf("survivor %d error = %v, want ErrPeerDown", world, errs[world])
		}
	}
	if _, _, _, err := job.Result(); !errors.Is(err, ErrNoResult) {
		t.Fatalf("failed run has a result (err %v)", err)
	}
	if len(job.transitions) != 0 {
		t.Fatalf("failed run recorded %d transitions", len(job.transitions))
	}
	if len(saved) != 1 {
		t.Fatalf("checkpoint hook saw %d steps, want only the completed step 0", len(saved))
	}

	o.KillAtStep, o.Checkpoint = nil, nil
	resumed, err := NewElasticJob(saved[0], snaps[1:], o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runElastic(t, resumed, 3); err != nil {
		t.Fatal(err)
	}
	got, _, _, err := resumed.Result()
	if err != nil {
		t.Fatal(err)
	}
	for m := range got.Factors {
		if d := mat.MaxAbsDiff(got.Factors[m], ref.Factors[m]); d != 0 {
			t.Fatalf("mode %d: resumed run diverges from the uninterrupted one by %g", m, d)
		}
	}
}

// TestElasticStampsSpansWithStep: every member's spans carry the step
// they were recorded in, so /debug/trace and the plane timeline can be
// cut by step.
func TestElasticStampsSpansWithStep(t *testing.T) {
	prev, snaps := elasticSeq(t, 3)
	o := elasticBase(2, 2)
	o.MaxIters = 2
	job, err := NewElasticJob(prev, snaps, o)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := runElastic(t, job, 2)
	if err != nil {
		t.Fatal(err)
	}
	for rank, rk := range stats.Ranks {
		seen := map[int]bool{}
		for _, ev := range rk.Obs.Spans {
			seen[ev.Snapshot] = true
		}
		for step := range snaps {
			if !seen[step] {
				t.Errorf("rank %d recorded no span stamped with step %d (saw %v)", rank, step, seen)
			}
		}
		if len(seen) != len(snaps) {
			t.Errorf("rank %d stamped steps %v, want exactly 0..%d", rank, seen, len(snaps)-1)
		}
	}
}

// TestElasticDrainMidStream: a member retires at a step fence; the
// remaining pair finishes the stream and still converges to the
// uninterrupted fit. The fence itself is free of factor traffic, and
// the checkpoint hook observes every step's synced post-step state and
// statistics.
func TestElasticDrainMidStream(t *testing.T) {
	prev, snaps := elasticSeq(t, 3)
	o := elasticBase(3, 3)
	_, refLoss := referenceRun(t, prev, snaps, 3, o.Options)

	var mu sync.Mutex
	var ckSteps []int
	var ckDims []int
	var ckLoss []float64
	o.DrainAtStep = map[int]int{1: 2}
	o.Checkpoint = func(step int, st *dtd.State, stats *StepStats) error {
		mu.Lock()
		defer mu.Unlock()
		ckSteps = append(ckSteps, step)
		ckDims = append(ckDims, st.Dims[0])
		ckLoss = append(ckLoss, stats.Loss)
		if stats.Iters != len(stats.LossTrace) || stats.Iters == 0 || stats.ComplementNNZ == 0 {
			t.Errorf("step %d stats = %+v", step, stats)
		}
		return nil
	}
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
	if rel := math.Abs(gotLoss-refLoss) / refLoss; rel > 1e-6 {
		t.Fatalf("drained fit %v vs uninterrupted %v (relative %g)", gotLoss, refLoss, rel)
	}
	if len(transitions) != 1 {
		t.Fatalf("recorded %d transitions, want 1: %+v", len(transitions), transitions)
	}
	d := transitions[0]
	if d.Epoch != 1 || d.Step != 1 || len(d.Leave) != 1 || d.Leave[0] != 2 {
		t.Fatalf("drain transition = %+v", d)
	}
	if d.BytesSent != 0 || d.MovedRows != 0 {
		t.Fatalf("drain fence cost %d bytes / %d rows, want none", d.BytesSent, d.MovedRows)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ckSteps) != len(snaps) {
		t.Fatalf("checkpoint hook fired at steps %v, want one per step", ckSteps)
	}
	for i, s := range ckSteps {
		if s != i {
			t.Fatalf("checkpoint steps %v out of order", ckSteps)
		}
		if ckDims[i] != snaps[i].Dims[0] {
			t.Fatalf("checkpoint %d saw dim %d, want the post-step %d", i, ckDims[i], snaps[i].Dims[0])
		}
	}
	if last := ckLoss[len(ckLoss)-1]; last != gotLoss {
		t.Fatalf("last checkpoint saw loss %v, Result %v", last, gotLoss)
	}
}
