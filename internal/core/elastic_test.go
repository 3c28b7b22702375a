package core

// Chaos tests for the elastic multi-step driver: membership changes —
// rank deaths mid-step, joins and drains at fences — must leave the
// decomposition's convergence intact (fit within 1e-6 relative of an
// uninterrupted run), reproduce the Step chain over the member counts
// the steps ran at bit for bit, and cost nothing when membership is
// static (bitwise-identical to the sequential Step driver).

import (
	"errors"
	"fmt"
	"math"
	"strings"
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

func elasticBase(world int) ElasticOptions {
	return ElasticOptions{
		Options: Options{Rank: 3, MaxIters: 30, Tol: 1e-10, Mu: 0.8, Seed: 21, Method: partition.MTPMethod},
		World:   world,
	}
}

// referenceRun chains the static Step driver over the same snapshots
// and returns the final state and final step loss.
func referenceRun(t *testing.T, prev *dtd.State, snaps []*tensor.Tensor, workers int, o Options) (*dtd.State, float64) {
	t.Helper()
	counts := make([]int, len(snaps))
	for i := range counts {
		counts[i] = workers
	}
	return chainRun(t, prev, snaps, counts, o)
}

// chainRun is referenceRun with a worker count per step: the chain an
// elastic run whose membership changed must reproduce bitwise.
func chainRun(t *testing.T, prev *dtd.State, snaps []*tensor.Tensor, workers []int, o Options) (*dtd.State, float64) {
	t.Helper()
	var loss float64
	for i, snap := range snaps {
		o.Workers = workers[i]
		o.Parts = workers[i]
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
	return runElasticFaults(t, j, world, nil, 60*time.Second)
}

// runElasticFaults is runElastic under a fault plan (nil for none) and a
// receive timeout.
func runElasticFaults(t *testing.T, j *ElasticJob, world int, plan *cluster.FaultPlan, timeout time.Duration) (*cluster.RunStats, error) {
	t.Helper()
	c := cluster.NewLocal(world)
	c.SetRecvTimeout(timeout)
	if plan != nil {
		c.SetFaultPlan(plan)
	}
	return c.Run(j.RunWorker)
}

// requireSameState fails unless got equals want bit for bit.
func requireSameState(t *testing.T, got, want *dtd.State, what string) {
	t.Helper()
	if len(got.Factors) != len(want.Factors) {
		t.Fatalf("%s: %d factors, want %d", what, len(got.Factors), len(want.Factors))
	}
	for m := range got.Factors {
		if d := mat.MaxAbsDiff(got.Factors[m], want.Factors[m]); d != 0 {
			t.Fatalf("%s: mode %d differs by %g", what, m, d)
		}
	}
}

// TestElasticPlaneKeepsMathsBitwise: the plane's fence round runs
// after every step, and it must not change a single bit of the
// decomposition — the fence is pure observation.
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
		t.Fatalf("observing plane recorded %d transitions", len(transitions))
	}
	if gotLoss != refLoss {
		t.Fatalf("plane-enabled loss %v, reference %v — observation changed the maths", gotLoss, refLoss)
	}
}

// TestElasticStaticMatchesStepBitwise: with no membership events the
// elastic driver must reproduce the sequential Step driver bitwise —
// elasticity is pay-for-what-you-use.
func TestElasticStaticMatchesStepBitwise(t *testing.T) {
	prev, snaps := elasticSeq(t, 3)
	o := elasticBase(3)
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

// TestElasticScriptReplay: NewElasticJob replays the script over
// membership — the fence's join and drain against the membership
// entering the step, then the kill — and refuses, naming the entry,
// every event that could not fire as written.
func TestElasticScriptReplay(t *testing.T) {
	prev, snaps := elasticSeq(t, 3) // three steps
	for _, tc := range []struct {
		world  int
		script string
		want   string // "" = accepted
	}{
		{4, "kill:1:1,join:3:2", ""},
		{4, "join:3:1,kill:3:1", ""},
		{3, "drain:2:1,kill:1:2", ""},
		{4, "join:3:-1,drain:1:-2,kill:2:0", ""},
		{3, "drain:1:-1,kill:1:0", `"kill:1:0": rank 1 is gone at step 0`},
		{2, "kill:1:-1,drain:0:-1", `"kill:1:-1" leaves step -1 with no member`},
		{4, "kill:3:0,join:3:2", `"kill:3:0": rank 3 is a spare at step 0`},
		{4, "drain:3:0,join:3:1", `"drain:3:0": rank 3 is a spare at step 0`},
		{4, "join:3:1,drain:3:1", `"drain:3:1": rank 3 is a spare at step 1`},
		{3, "drain:1:0,kill:1:1", `"kill:1:1": rank 1 is gone at step 1`},
		{3, "drain:1:1,kill:1:1", `"kill:1:1": rank 1 is gone at step 1`},
		{4, "join:3:1,join:3:2", `"join:3:2": rank 3 is a member at step 2`},
		{4, "join:3:0,kill:3:1,join:3:2", `"join:3:2": rank 3 is gone at step 2`},
		{1, "drain:0:1", `"drain:0:1" leaves step 1 with no member`},
		{2, "kill:1:0,kill:0:1", `"kill:0:1" leaves step 1 with no member`},
		{4, "join:1:1", `the 1 scripted joiners are not the highest ranks`},
		{1, "join:0:1", `above an initial member`},
		{4, "kill:1:3", `"kill:1:3" is not in 3 steps of a world of 4`},
		{4, "kill:4:1", `"kill:4:1" is not in 3 steps of a world of 4`},
		{4, "kill:1:1,kill:2:1", `script entries "kill:1:1" and "kill:2:1": two kills at step 1`},
		{4, "pause:1:1", `script entry "pause:1:1": unknown verb`},
	} {
		o := elasticBase(tc.world)
		o.Script = tc.script
		_, err := NewElasticJob(prev, snaps, o)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("world %d, %s refused: %v", tc.world, tc.script, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("world %d, %s: error %v, want one naming %s", tc.world, tc.script, err, tc.want)
		}
	}
}

// TestParseScript: the events come out in firing order — by step, and
// a step's drain and join before its kill — each printing as its entry,
// and every refusal names the offending entry.
func TestParseScript(t *testing.T) {
	script, err := ParseScript("kill:1:2,kill:2:1,join:3:2,drain:0:2")
	if err != nil {
		t.Fatal(err)
	}
	parts := make([]string, len(script))
	for i, ev := range script {
		parts[i] = ev.String()
	}
	if got, want := strings.Join(parts, ","), "kill:2:1,drain:0:2,join:3:2,kill:1:2"; got != want {
		t.Fatalf("parsed %q, want %q", got, want)
	}
	if script, err := ParseScript(""); err != nil || script != nil {
		t.Fatalf("empty script = %v, %v", script, err)
	}
	for text, want := range map[string]string{
		"kill:1":            `"kill:1" is not verb:rank:step`,
		"kill:1:1:1":        `"kill:1:1:1" is not verb:rank:step`,
		"kill:x:1":          `"kill:x:1" is not verb:rank:step`,
		"kill:-1:1":         `"kill:-1:1" is not verb:rank:step`,
		"kill:1:1,":         `"" is not verb:rank:step`,
		"pause:1:1":         `"pause:1:1": unknown verb "pause"`,
		"join:3:1,join:2:1": `"join:3:1" and "join:2:1": two joins at step 1`,
	} {
		if _, err := ParseScript(text); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want one naming %s", text, err, want)
		}
	}
}

// TestElasticKillAndJoinMidStream is the headline chaos test: world of
// 4 ranks streams 3 steps with 3 members; rank 1 crashes mid-sweep in
// step 1, the survivors re-run the step without it, and spare rank 3 is
// admitted at step 2's fence as a warm-started replacement. The final
// state must be the Step chain at 3, 2 and 3 workers bit for bit, the
// fit must track an uninterrupted run within 1e-6 relative, and the
// recovery must ship nothing — only the joiner's boot state crosses the
// wire, byte-for-byte accounted.
func TestElasticKillAndJoinMidStream(t *testing.T) {
	const r = 3
	prev, snaps := elasticSeq(t, r)
	o := elasticBase(4)
	_, refLoss := referenceRun(t, prev, snaps, 3, o.Options)
	chain, chainLoss := chainRun(t, prev, snaps, []int{3, 2, 3}, o.Options)

	o.Script = "kill:1:1,join:3:2"
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
	requireSameState(t, final, chain, "recovered run vs the 3-2-3 Step chain")
	if gotLoss != chainLoss {
		t.Fatalf("recovered loss %v, chain %v", gotLoss, chainLoss)
	}

	if len(transitions) != 2 {
		t.Fatalf("recorded %d transitions, want 2 (recovery + join): %+v", len(transitions), transitions)
	}
	rec, join := transitions[0], transitions[1]

	// Recovery transition: epoch 1, rank 1 dead during step 1, and no
	// state on the wire — every survivor restarts from the fence state it
	// holds.
	if rec.Epoch != 1 || rec.Step != 1 || len(rec.Dead) != 1 || rec.Dead[0] != 1 {
		t.Fatalf("recovery transition = %+v", rec)
	}
	if rec.BytesSent != 0 {
		t.Fatalf("recovery sent %d bytes, want 0", rec.BytesSent)
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
	if join.BytesSent != wantBoot {
		t.Fatalf("join sent %d bytes, want %d (boot state only)", join.BytesSent, wantBoot)
	}

	// Per-rank instrumentation: both survivors recovered exactly once;
	// the joiner adopted one epoch.
	for _, world := range []int{0, 2} {
		c := stats.Ranks[world].Obs.Metrics.Counters
		if c["elastic.recoveries"] != 1 {
			t.Fatalf("rank %d recoveries = %d, want 1", world, c["elastic.recoveries"])
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
	o := elasticBase(3)
	ref, _ := referenceRun(t, prev, snaps, 3, o.Options)

	o.Script = "kill:1:1"
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

	o.Script, o.Checkpoint = "", nil
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
// they were recorded in, so a worker's /debug/timeline — its own spans
// or the plane's merged ones — can be cut by step.
func TestElasticStampsSpansWithStep(t *testing.T) {
	prev, snaps := elasticSeq(t, 3)
	o := elasticBase(2)
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
	o := elasticBase(3)
	_, refLoss := referenceRun(t, prev, snaps, 3, o.Options)

	var mu sync.Mutex
	var ckSteps []int
	var ckDims []int
	var ckLoss []float64
	o.Script = "drain:2:1"
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
	if d.BytesSent != 0 {
		t.Fatalf("drain fence cost %d bytes, want none", d.BytesSent)
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

// linkSends counts the sends on the (from, to) link of an undisturbed
// elastic run over the first steps snapshots: the ordinal a FaultRule
// gives the link's next send in a longer run of the same stream. An
// in-process FaultCut delivers its message, so a cut rule counts.
func linkSends(t *testing.T, prev *dtd.State, snaps []*tensor.Tensor, o ElasticOptions, steps, from, to int) int {
	t.Helper()
	job, err := NewElasticJob(prev, snaps[:steps], o)
	if err != nil {
		t.Fatal(err)
	}
	counter := cluster.NewFaultPlan(cluster.FaultRule{From: from, To: to, FirstSeq: 0, LastSeq: -1, Op: cluster.FaultCut})
	if _, err := runElasticFaults(t, job, o.World, counter, 60*time.Second); err != nil {
		t.Fatal(err)
	}
	return counter.FiredOp(cluster.FaultCut)
}

// killInStep runs the three-member stream with the victim rank killed
// in the given step — by the fault plan, or by the script when plan is
// nil — and returns the survivors' final state and the run's statistics
// after checking that every survivor returned nil and that the run
// recorded the one recovery transition. The receive timeout is short so
// a recovery that deadlocks fails instead of hanging.
func killInStep(t *testing.T, prev *dtd.State, snaps []*tensor.Tensor, o ElasticOptions, victim, step int, plan *cluster.FaultPlan) (*dtd.State, *cluster.RunStats) {
	t.Helper()
	if plan == nil {
		o.Script = fmt.Sprintf("kill:%d:%d", victim, step)
	}
	job, err := NewElasticJob(prev, snaps, o)
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, o.World)
	c := cluster.NewLocal(o.World)
	c.SetRecvTimeout(10 * time.Second)
	if plan != nil {
		c.SetFaultPlan(plan)
	}
	stats, err := c.Run(func(w *cluster.Worker) error {
		errs[w.Rank()] = job.RunWorker(w)
		return errs[w.Rank()]
	})
	if plan == nil && !errors.Is(err, ErrScriptedCrash) {
		t.Fatalf("run error = %v, want the scripted crash", err)
	}
	if plan != nil && plan.FiredOp(cluster.FaultError) != 1 {
		t.Fatalf("fault plan fired %d errors, want 1 (run error %v)", plan.FiredOp(cluster.FaultError), err)
	}
	for r, err := range errs {
		if r != victim && err != nil {
			t.Fatalf("survivor %d returned %v", r, err)
		}
	}
	final, _, transitions, err := job.Result()
	if err != nil {
		t.Fatal(err)
	}
	if len(transitions) != 1 {
		t.Fatalf("recorded %d transitions, want 1: %+v", len(transitions), transitions)
	}
	if tr := transitions[0]; tr.Step != step || len(tr.Dead) != 1 || tr.Dead[0] != victim || tr.BytesSent != 0 {
		t.Fatalf("recovery transition = %+v, want rank %d dead in step %d and nothing sent", tr, victim, step)
	}
	return final, stats
}

// TestElasticRecoveryIndependentOfDeathPoint: wherever in step 1 rank 1
// dies — its first sweep, the scripted crash at the start of its
// second, or its last sweep (its state sync: see
// TestElasticDeathInLastSyncRecovers) — the survivors re-run step 1
// from the same fence state, so every run ends at the Step chain over
// 3, 2 and 2 workers bit for bit.
func TestElasticRecoveryIndependentOfDeathPoint(t *testing.T) {
	prev, snaps := elasticSeq(t, 3)
	o := elasticBase(3)
	chain, _ := chainRun(t, prev, snaps, []int{3, 2, 2}, o.Options)

	// Step 1's plan: rank 1 owns rows in every mode, so the state sync
	// sends exactly one message per mode to rank 0, and rank 0 subscribes
	// to some of rank 1's mode-0 rows, so sweep 0's first row exchange
	// crosses the link.
	plan := dplan.Build(snaps[1].Complement(snaps[0].Dims), 3, 3, o.Method)
	for m := range plan.Dims {
		if len(plan.OwnedSlices[m][1]) == 0 {
			t.Fatalf("rank 1 owns no mode-%d rows in step 1", m)
		}
	}
	if len(plan.SendLists[0][1][0]) == 0 {
		t.Fatal("rank 0 subscribes to none of rank 1's mode-0 rows in step 1")
	}
	afterStep0 := linkSends(t, prev, snaps, o, 1, 1, 0)
	afterStep1 := linkSends(t, prev, snaps, o, 2, 1, 0)
	fault := func(tag string, seq, last int) *cluster.FaultPlan {
		return cluster.NewFaultPlan(cluster.FaultRule{From: 1, To: 0, TagPrefix: tag, FirstSeq: seq, LastSeq: last, Op: cluster.FaultError})
	}
	for _, tc := range []struct {
		name string
		plan *cluster.FaultPlan
	}{
		// The first row message of step 1: sweep 0's mode-0 exchange.
		{"first sweep", fault("v0|rows/0", afterStep0, -1)},
		{"scripted crash", nil},
		// The last send before the state sync's three and the fence
		// record: the last sweep's loss reduction.
		{"last sweep", fault("", afterStep1-5, 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			final, _ := killInStep(t, prev, snaps, o, 1, 1, tc.plan)
			requireSameState(t, final, chain, "recovered run vs the 3-2-2 Step chain")
		})
	}
}

// TestElasticSurvivorsRestartTheSameStep: the coordinator, rank 0, dies
// between its two sends of step 1's fence decision, so rank 1 has the
// decision and goes on into step 2 while rank 2 fails inside step 1.
// Both then agree on the same shrunken view; they must also agree to
// restart step 1 — rank 1 from the fence state it kept — and end at the
// Step chain over 3, 2 and 2 workers bit for bit.
func TestElasticSurvivorsRestartTheSameStep(t *testing.T) {
	prev, snaps := elasticSeq(t, 3)
	o := elasticBase(3)
	chain, _ := chainRun(t, prev, snaps, []int{3, 2, 2}, o.Options)

	seq := linkSends(t, prev, snaps, o, 2, 0, 2) - 1
	plan := cluster.NewFaultPlan(cluster.FaultRule{From: 0, To: 2, TagPrefix: "v0|obsfence/dec", FirstSeq: seq, Op: cluster.FaultError})
	final, stats := killInStep(t, prev, snaps, o, 0, 1, plan)
	// The split happened: rank 1 bound step 2's engine before the
	// recovery epoch.
	split := false
	for _, ev := range stats.Ranks[1].Obs.Spans {
		split = split || (ev.Snapshot == 2 && ev.Epoch == 0)
	}
	if !split {
		t.Fatal("rank 1 never entered step 2 ahead of the recovery")
	}
	requireSameState(t, final, chain, "recovered run vs the 3-2-2 Step chain")
}

// TestElasticDeathInLastSyncRecovers: rank 1 dies between its two sends
// of the last mode's state sync in the final step, so rank 0 holds all
// of that step's rows while rank 2 fails inside the sync. The fence
// gather that follows every sync keeps rank 0 in the step too: both
// survivors restart the final step and return nil, ending at the Step
// chain over 3, 3 and 2 workers bit for bit.
func TestElasticDeathInLastSyncRecovers(t *testing.T) {
	prev, snaps := elasticSeq(t, 3)
	o := elasticBase(3)
	chain, _ := chainRun(t, prev, snaps, []int{3, 3, 2}, o.Options)

	last := len(snaps) - 1
	seq := linkSends(t, prev, snaps, o, len(snaps), 1, 2) - 1
	plan := cluster.NewFaultPlan(cluster.FaultRule{From: 1, To: 2, TagPrefix: "v0|rows/2", FirstSeq: seq, Op: cluster.FaultError})
	final, _ := killInStep(t, prev, snaps, o, 1, last, plan)
	requireSameState(t, final, chain, "recovered run vs the 3-3-2 Step chain")
}

// TestElasticCoordinatorDeathInLastFenceFinishes: the coordinator, rank
// 0, dies between its two sends of the final step's fence decision, so
// rank 1 has the decision and finishes while rank 2 fails inside the
// fence. Every member's final sync completed before that fence, so the
// last-fence rule ends the run there: both survivors return nil, rank 2
// — which saw the death — records Result and calls the last step's
// Checkpoint with the synced state, and that state is the Step chain
// over 3, 3 and 3 workers bit for bit.
func TestElasticCoordinatorDeathInLastFenceFinishes(t *testing.T) {
	prev, snaps := elasticSeq(t, 3)
	o := elasticBase(3)
	chain, chainLoss := chainRun(t, prev, snaps, []int{3, 3, 3}, o.Options)

	last := len(snaps) - 1
	var mu sync.Mutex
	var ckSteps []int
	var ckLast *dtd.State
	o.Checkpoint = func(step int, st *dtd.State, _ *StepStats) error {
		mu.Lock()
		defer mu.Unlock()
		ckSteps = append(ckSteps, step)
		if step == last {
			ckLast = st
		}
		return nil
	}
	seq := linkSends(t, prev, snaps, o, len(snaps), 0, 2) - 1
	plan := cluster.NewFaultPlan(cluster.FaultRule{From: 0, To: 2, TagPrefix: "v0|obsfence/dec", FirstSeq: seq, Op: cluster.FaultError})
	ckSteps = nil // the counting run checkpointed too
	job, err := NewElasticJob(prev, snaps, o)
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, o.World)
	c := cluster.NewLocal(o.World)
	c.SetRecvTimeout(10 * time.Second)
	c.SetFaultPlan(plan)
	c.Run(func(w *cluster.Worker) error {
		errs[w.Rank()] = job.RunWorker(w)
		return errs[w.Rank()]
	})
	if plan.FiredOp(cluster.FaultError) != 1 {
		t.Fatalf("fault plan fired %d errors, want 1", plan.FiredOp(cluster.FaultError))
	}
	if errs[0] == nil {
		t.Fatal("the coordinator survived its failed decision send")
	}
	for _, r := range []int{1, 2} {
		if errs[r] != nil {
			t.Fatalf("survivor %d returned %v", r, errs[r])
		}
	}
	final, loss, _, err := job.Result()
	if err != nil {
		t.Fatal(err)
	}
	requireSameState(t, final, chain, "run ended at the last fence vs the 3-3-3 Step chain")
	if loss != chainLoss {
		t.Fatalf("final loss %v, chain %v", loss, chainLoss)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ckSteps) != len(snaps) || ckSteps[last] != last || ckLast == nil {
		t.Fatalf("checkpoint hook saw steps %v, want each of 0..%d once", ckSteps, last)
	}
	requireSameState(t, ckLast, chain, "last checkpoint vs the 3-3-3 Step chain")
}
