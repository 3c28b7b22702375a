// Multi-step cluster driver: DisMASTD streaming across view changes.
//
// Step/StepJob run one step on a fixed worker set. ElasticJob drives a
// sequence of snapshot steps in one cluster run — the driver cmd/worker
// runs every stream through — over a cluster whose membership may
// change while the stream is running:
//
//   - A rank crashing mid-step surfaces as a rank-attributed
//     ErrPeerDown on every survivor (drain-then-fail mailboxes plus
//     epoch revocation break transitive collective blocks). Survivors
//     agree on the shrunken view, rebalance the partitioning with
//     minimal slice movement (partition.Rebalance), absorb the dead
//     rank's factor rows from their local replicas — the degraded-mode
//     policy: the freshest surviving copy, at worst one aborted sweep
//     stale — migrate the few rows whose surviving owner changed,
//     refresh the row subscriptions, re-establish the Gram state, and
//     restart the step's ALS sweeps warm. No wire bytes are spent on
//     rows that did not change owner. (FailOnPeerDown selects the other
//     policy: the survivors stop with the ErrPeerDown, and a restarted
//     cluster resumes from the last step's checkpoint, bitwise.)
//
//   - Joins and drains are admitted at step fences, where every member
//     holds the full synced state: a joiner warm-starts from a single
//     targeted state transfer (no repartition shuffle — the next step
//     plans for the grown view from scratch, since snapshot dimensions
//     grow anyway), and a drainer leaves after view agreement with
//     nothing to hand off.
//
// Membership never changes the maths: every epoch runs the same
// dtd.Sweep engine as a chain of Step calls, only bound to a different
// plan. A run with no membership events reproduces that chain's
// per-step results bitwise.

package core

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"dismastd/internal/cluster"
	"dismastd/internal/dplan"
	"dismastd/internal/dtd"
	"dismastd/internal/mat"
	obscluster "dismastd/internal/obs/cluster"
	"dismastd/internal/tensor"
)

// ErrScriptedCrash is the error a scripted victim rank dies with in
// chaos runs; survivors observe it only as ErrPeerDown.
var ErrScriptedCrash = errors.New("core: scripted crash")

// ElasticOptions configures a multi-step elastic run. The embedded
// Options provide the per-step algorithm parameters; Workers and Parts
// are ignored (each epoch plans for its view size, one partition per
// member, which is what keeps live re-partitioning minimal).
type ElasticOptions struct {
	Options

	World   int // total ranks in the world cluster, members + spares
	Members int // initial members, world ranks 0..Members-1

	// Chaos script, known to every rank (deterministic admission; the
	// join/drain request RPCs are still exercised and polled at fences).
	// KillAtStep[s] crashes that world rank at the start of sweep
	// KillSweep of step s. JoinAtStep[s] admits that spare world rank at
	// step s's fence; DrainAtStep[s] retires that member there.
	KillAtStep  map[int]int
	KillSweep   int // default 1
	JoinAtStep  map[int]int
	DrainAtStep map[int]int

	// SlowRanks scripts heterogeneous hardware: world rank → extra
	// compute nanoseconds per unit of planned load, burned inside a
	// compute-phase span every step. The observability plane sees the
	// padding exactly as it would a member with slower cores, which is
	// what the rebalance chaos tests use to provoke the detector
	// deterministically.
	SlowRanks map[int]float64

	// FailOnPeerDown makes a mid-step rank death fatal: every survivor's
	// RunWorker returns the rank-attributed ErrPeerDown instead of
	// absorbing the dead rank and continuing. Absorbing keeps the stream
	// alive at a result within reordering tolerance of the uninterrupted
	// run; failing keeps every completed step's state exactly what a
	// restart from its checkpoint reproduces.
	FailOnPeerDown bool

	// Checkpoint, when set, is called by view rank 0 after every step's
	// state sync (and observability fence) with the synced post-step
	// state and the step's statistics (Cluster left nil). An error stops
	// that rank's run.
	Checkpoint func(step int, st *dtd.State, stats *StepStats) error

	// Plane, when set, turns on the cluster observability plane: every
	// member gathers its metric deltas, runtime gauges, and fresh spans
	// to the view coordinator after each step's state sync, and the
	// coordinator's imbalance detector broadcasts its verdict back.
	Plane *obscluster.Config

	// RebalanceOnImbalance arms the plane's detector: when the smoothed
	// per-rank imbalance CV crosses the threshold, the next membership
	// fence bumps the view epoch (no membership change) and the stream
	// re-partitions with the detector's cost weights — a live rebalance
	// of a skewed stream. Requires Plane.
	RebalanceOnImbalance bool

	// PlaneReady, when set, is called once per world rank with that
	// rank's freshly built plane, before any fence runs — the hook
	// cmd/worker uses to mount /debug/cluster.
	PlaneReady func(world int, p *obscluster.Plane)
}

// TransitionStats records one membership transition (a fence-admitted
// join/drain or a mid-step failure recovery).
type TransitionStats struct {
	Step  int
	Epoch int64
	Dead  []int // world ranks lost mid-step
	Join  []int // world ranks admitted
	Leave []int // world ranks drained

	MovedRows    int   // factor rows shipped between surviving owners
	AbsorbedRows int   // dead ranks' rows adopted from local replicas
	BytesSent    int64 // wire bytes of the transition, summed over ranks

	// Rebalance marks an epoch bump triggered by the imbalance detector
	// rather than a membership change: same members, new plan weights.
	// CV is the detector statistic that fired it. Rebalances cost zero
	// migration bytes — at fences every member already holds the full
	// synced state, so the next step simply plans differently.
	Rebalance bool
	CV        float64
}

// ElasticJob drives len(snapshots) streaming steps over an elastic
// world cluster. Build one with NewElasticJob, run RunWorker once per
// world rank on a cluster with elastic semantics, then read Result.
type ElasticJob struct {
	opts      ElasticOptions
	prev      *dtd.State
	snapshots []*tensor.Tensor

	mu          sync.Mutex
	final       *dtd.State
	finalLoss   float64
	byEpoch     map[int64]*TransitionStats
	transitions []*TransitionStats
}

// NewElasticJob validates the script and prepares the run. prev and the
// snapshots are shared read-only across ranks.
func NewElasticJob(prev *dtd.State, snapshots []*tensor.Tensor, o ElasticOptions) (*ElasticJob, error) {
	if len(snapshots) == 0 {
		return nil, errors.New("core: elastic run needs at least one snapshot")
	}
	if o.Members <= 0 || o.World < o.Members {
		return nil, fmt.Errorf("core: world %d with %d initial members", o.World, o.Members)
	}
	if o.KillSweep <= 0 {
		o.KillSweep = 1
	}
	probe := o.Options
	probe.Workers = o.Members
	if _, err := probe.withDefaults(); err != nil {
		return nil, err
	}
	joiners := map[int]bool{}
	for s, r := range o.JoinAtStep {
		if s < 0 || s >= len(snapshots) {
			return nil, fmt.Errorf("core: join scripted at step %d of %d", s, len(snapshots))
		}
		if r < o.Members || r >= o.World {
			return nil, fmt.Errorf("core: scripted joiner %d is not a spare of world %d", r, o.World)
		}
		if joiners[r] {
			return nil, fmt.Errorf("core: spare %d scripted to join twice", r)
		}
		joiners[r] = true
	}
	for s, r := range o.KillAtStep {
		if s < 0 || s >= len(snapshots) || r < 0 || r >= o.World {
			return nil, fmt.Errorf("core: kill of rank %d scripted at step %d", r, s)
		}
	}
	for s, r := range o.DrainAtStep {
		if s < 0 || s >= len(snapshots) || r < 0 || r >= o.World {
			return nil, fmt.Errorf("core: drain of rank %d scripted at step %d", r, s)
		}
	}
	for r, h := range o.SlowRanks {
		if r < 0 || r >= o.World || h < 0 || math.IsNaN(h) {
			return nil, fmt.Errorf("core: scripted handicap %v on rank %d of world %d", h, r, o.World)
		}
	}
	if o.RebalanceOnImbalance && o.Plane == nil {
		return nil, errors.New("core: RebalanceOnImbalance requires a Plane config")
	}
	return &ElasticJob{
		opts:      o,
		prev:      prev,
		snapshots: snapshots,
		byEpoch:   map[int64]*TransitionStats{},
	}, nil
}

// Result returns the final state (assembled on the final view's rank
// 0), the last step's loss, and the membership transitions in epoch
// order. Valid after every world rank's RunWorker has returned.
func (j *ElasticJob) Result() (*dtd.State, float64, []TransitionStats, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.final == nil {
		return nil, 0, nil, ErrNoResult
	}
	sort.Slice(j.transitions, func(a, b int) bool { return j.transitions[a].Epoch < j.transitions[b].Epoch })
	out := make([]TransitionStats, len(j.transitions))
	for i, t := range j.transitions {
		out[i] = *t
	}
	return j.final, j.finalLoss, out, nil
}

// stepOpts derives the per-step Options for the view: one partition per
// member, so re-partitioning stays a per-member diff, plus the current
// detector cost weights mapped from world ranks into view-rank order.
func (j *ElasticJob) stepOpts(v cluster.View, rs *rankStream) Options {
	opts := j.opts.Options
	opts.Workers = v.Size()
	opts.Parts = v.Size()
	if rs.weightByWorld != nil {
		rw := make([]float64, v.Size())
		for i, world := range v.Members {
			rw[i] = rs.weightByWorld[world]
		}
		opts.RankWeights = rw
	}
	return opts
}

// rankStream is one member's mutable stream-scope state living outside
// the per-step jobs: its observability plane and the detector-derived
// cost weights. Weights are keyed by world rank — the identity that
// survives view changes — and every member's copy evolves identically
// because it is driven only by the broadcast fence decisions (joiners
// receive the current weights in their boot transfer).
type rankStream struct {
	plane         *obscluster.Plane
	weightByWorld []float64 // nil until a rebalance first fires
	pending       bool      // detector fired; bump the epoch at the next fence
	cv            float64   // CV of the firing decision
}

// newRankStream builds the per-rank stream state; w is the root (world)
// worker.
func (j *ElasticJob) newRankStream(w *cluster.Worker) *rankStream {
	rs := &rankStream{}
	if j.opts.Plane != nil {
		cfg := *j.opts.Plane
		cfg.Detector.Arm = cfg.Detector.Arm || j.opts.RebalanceOnImbalance
		rs.plane = obscluster.NewPlane(cfg, w.Obs(), w.Size())
		if j.opts.PlaneReady != nil {
			j.opts.PlaneReady(w.Rank(), rs.plane)
		}
	}
	return rs
}

// obsFence runs the plane's fence round after a step's state sync. The
// detector input is the step plan's per-rank planned load scaled by the
// weights it was planned under — the modelled cost — so a successful
// weighted rebalance reads as balanced and the detector re-arms only on
// fresh skew. A fire stages the epoch bump for the next membership
// fence and folds the broadcast weights into the world-keyed table.
func (j *ElasticJob) obsFence(vw *cluster.Worker, v cluster.View, rs *rankStream, job *StepJob, s int) error {
	loads := job.plan.RankLoads()
	for i, rw := range job.opts.RankWeights {
		loads[i] *= rw
	}
	dec, err := rs.plane.Fence(vw, v.Members, v.Epoch, s, loads)
	if err != nil {
		return err
	}
	if dec.Fire {
		if rs.weightByWorld == nil {
			rs.weightByWorld = make([]float64, j.opts.World)
			for i := range rs.weightByWorld {
				rs.weightByWorld[i] = 1
			}
		}
		for i, world := range v.Members {
			rs.weightByWorld[world] = dec.Weights[i]
		}
		rs.pending = true
		rs.cv = dec.CV
	}
	return nil
}

// joinStep reports the step at which the given spare is scripted to
// join, or -1.
func (j *ElasticJob) joinStep(world int) int {
	for s, r := range j.opts.JoinAtStep {
		if r == world {
			return s
		}
	}
	return -1
}

// dimsBefore returns the state dimensions entering step s.
func (j *ElasticJob) dimsBefore(s int) []int {
	if s == 0 {
		return j.prev.Dims
	}
	return j.snapshots[s-1].Dims
}

// record merges one rank's contribution to a transition, keyed by the
// epoch it produced (ranks reach the same transition at different
// times, and only view rank 0 fills the metadata).
func (j *ElasticJob) record(epoch int64, bytes int64, fill func(*TransitionStats)) {
	j.mu.Lock()
	defer j.mu.Unlock()
	t := j.byEpoch[epoch]
	if t == nil {
		t = &TransitionStats{Epoch: epoch}
		j.byEpoch[epoch] = t
		j.transitions = append(j.transitions, t)
	}
	t.BytesSent += bytes
	if fill != nil {
		fill(t)
	}
}

// RunWorker is the per-world-rank body. Initial members stream from
// step 0; scripted spares wait for adoption and join mid-stream;
// unscripted spares are never admitted and exit immediately.
func (j *ElasticJob) RunWorker(w *cluster.Worker) error {
	me := w.Rank()
	v := cluster.InitialView(j.opts.Members)
	if !v.Contains(me) {
		s := j.joinStep(me)
		if s < 0 {
			return nil
		}
		cluster.RequestJoin(w)
		av, cookie, err := cluster.AwaitAdopt(w)
		if err != nil {
			return fmt.Errorf("core: spare %d awaiting adoption: %w", me, err)
		}
		if int(cookie) != s {
			return fmt.Errorf("core: spare %d adopted for step %d, scripted %d", me, cookie, s)
		}
		vw, err := w.ViewWorker(av)
		if err != nil {
			return err
		}
		vw.Obs().Counter("elastic.epochs").Add(1)
		rs := j.newRankStream(w)
		prev, err := j.recvBoot(vw, s, rs)
		if err != nil {
			return err
		}
		return j.stream(w, av, vw, prev, s, true, rs)
	}
	vw, err := w.ViewWorker(v)
	if err != nil {
		return err
	}
	return j.stream(w, v, vw, j.prev, 0, false, j.newRankStream(w))
}

// stream runs steps start..end on the member's current view. adopted
// marks a joiner entering after its admission fence already ran.
func (j *ElasticJob) stream(w *cluster.Worker, v cluster.View, vw *cluster.Worker, prev *dtd.State, start int, adopted bool, rs *rankStream) error {
	for s := start; s < len(j.snapshots); s++ {
		w.Obs().SetSnapshot(s)
		if !adopted || s > start {
			var cont bool
			var err error
			v, vw, cont, err = j.fence(w, v, vw, s, prev, rs)
			if err != nil {
				return err
			}
			if !cont {
				return nil // drained
			}
		}
		var err error
		prev, v, vw, err = j.runStep(w, v, vw, prev, s, rs)
		if err != nil {
			return err
		}
	}
	if vw.Rank() == 0 {
		j.mu.Lock()
		j.final = prev
		j.mu.Unlock()
	}
	return nil
}

// fence is the between-steps membership barrier: scripted joins and
// drains for step s are agreed on, joiners adopted and booted with the
// synced state, drainers released. A pending detector fire with no
// membership change still runs the view agreement — the empty change
// bumps the epoch, marking the re-partition boundary — at zero factor
// traffic, since every member already holds the synced state. The
// returned bool is false when this rank drained. With an empty change
// and no pending rebalance the fence costs nothing.
func (j *ElasticJob) fence(w *cluster.Worker, v cluster.View, vw *cluster.Worker, s int, prev *dtd.State, rs *rankStream) (cluster.View, *cluster.Worker, bool, error) {
	// Drain pending membership RPCs; admission itself follows the shared
	// script so every member fences identically without consensus on the
	// request arrival order.
	cluster.PollMembershipRequests(w)
	vc := cluster.ViewChange{}
	if r, ok := j.opts.JoinAtStep[s]; ok {
		vc.Join = []int{r}
	}
	if r, ok := j.opts.DrainAtStep[s]; ok {
		vc.Leave = []int{r}
		if r == w.Rank() {
			cluster.RequestDrain(w)
		}
	}
	// The staged fire is consumed either way: a membership change
	// re-partitions (with the new weights) on its own epoch bump.
	rebalance := rs.pending && vc.Empty()
	rs.pending = false
	if vc.Empty() && !rebalance {
		return v, vw, true, nil
	}
	next, err := cluster.AgreeView(w, v, vc)
	if err != nil {
		return v, vw, false, fmt.Errorf("core: fence at step %d: %w", s, err)
	}
	if w.Rank() == cluster.Coordinator(v, next) {
		for _, r := range vc.Join {
			if err := cluster.SendAdopt(w, r, next, int64(s)); err != nil {
				return v, vw, false, err
			}
		}
	}
	for _, r := range vc.Leave {
		if r == w.Rank() {
			return v, vw, false, nil
		}
	}
	vw2, err := w.ViewWorker(next)
	if err != nil {
		return v, vw, false, err
	}
	vw2.Obs().Counter("elastic.epochs").Add(1)
	var bootBytes int64
	if vw2.Rank() == 0 && len(vc.Join) > 0 {
		base := vw2.MetricsSnapshot()
		for _, r := range vc.Join {
			if err := j.sendBoot(vw2, next.RankOf(r), prev, rs); err != nil {
				return v, vw, false, err
			}
		}
		bootBytes = vw2.MetricsSnapshot().BytesSent - base.BytesSent
	}
	if vw2.Rank() == 0 {
		j.record(next.Epoch, bootBytes, func(t *TransitionStats) {
			t.Step = s
			t.Join = append([]int(nil), vc.Join...)
			t.Leave = append([]int(nil), vc.Leave...)
			if rebalance {
				t.Rebalance = true
				t.CV = rs.cv
			}
		})
	}
	if rebalance {
		vw2.Obs().Counter("elastic.rebalances").Add(1)
	}
	return next, vw2, true, nil
}

// sendBoot ships the synced pre-step state to a freshly adopted joiner
// — the only rank missing it — as one message per mode, plus the
// current detector weight table so the joiner's plans agree with every
// incumbent's (empty when no rebalance ever fired).
func (j *ElasticJob) sendBoot(vw *cluster.Worker, to int, prev *dtd.State, rs *rankStream) error {
	for m, f := range prev.Factors {
		if err := vw.Send(to, vw.StreamTagIndexed("boot", m), cluster.EncodeFloat64s(f.Data)); err != nil {
			return err
		}
	}
	return vw.Send(to, vw.StreamTag("boot/w"), cluster.EncodeFloat64s(rs.weightByWorld))
}

// recvBoot receives the joiner's warm-start state and the detector
// weight table from view rank 0.
func (j *ElasticJob) recvBoot(vw *cluster.Worker, s int, rs *rankStream) (*dtd.State, error) {
	dims := j.dimsBefore(s)
	factors := make([]*mat.Dense, len(dims))
	for m, d := range dims {
		payload, err := vw.Recv(0, vw.StreamTagIndexed("boot", m))
		if err != nil {
			return nil, err
		}
		vals, err := cluster.DecodeFloat64s(payload)
		if err != nil {
			return nil, err
		}
		if len(vals) != d*j.opts.Rank {
			return nil, fmt.Errorf("core: boot mode %d: %d values for %dx%d", m, len(vals), d, j.opts.Rank)
		}
		factors[m] = mat.New(d, j.opts.Rank)
		copy(factors[m].Data, vals)
	}
	payload, err := vw.Recv(0, vw.StreamTag("boot/w"))
	if err != nil {
		return nil, err
	}
	ww, err := cluster.DecodeFloat64s(payload)
	if err != nil {
		return nil, err
	}
	if len(ww) > 0 {
		if len(ww) != j.opts.World {
			return nil, fmt.Errorf("core: boot weights for %d world ranks, want %d", len(ww), j.opts.World)
		}
		rs.weightByWorld = ww
	}
	return &dtd.State{Dims: append([]int(nil), dims...), Factors: factors}, nil
}

// runStep advances one snapshot step. On a mid-step rank death the
// survivors either stop with the ErrPeerDown (FailOnPeerDown) or
// re-partition, migrate, and restart the sweeps warm on the shrunken
// view. Returns the synced post-step state and the (possibly changed)
// view.
func (j *ElasticJob) runStep(w *cluster.Worker, v cluster.View, vw *cluster.Worker, prev *dtd.State, s int, rs *rankStream) (*dtd.State, cluster.View, *cluster.Worker, error) {
	job, err := NewStepJob(prev, j.snapshots[s], j.stepOpts(v, rs))
	if err != nil {
		return nil, v, vw, err
	}
	eng := job.bind(vw, nil)
	defer func() { eng.Close() }()
	scriptedCrash := func(sweep int) error {
		if r, ok := j.opts.KillAtStep[s]; ok && r == w.Rank() && sweep == j.opts.KillSweep {
			return fmt.Errorf("%w: rank %d at step %d sweep %d", ErrScriptedCrash, r, s, sweep)
		}
		return nil
	}

	for {
		err := eng.Run(scriptedCrash)
		vw.AddWork(eng.Work())
		var synced *dtd.State
		if err == nil {
			j.chaosSlow(w, vw, job)
			synced, err = j.syncState(vw, job, eng.Factors())
		}
		if err == nil && rs.plane != nil {
			// Observability fence: lockstep with the state sync, so
			// every member contributes and receives the decision.
			err = j.obsFence(vw, v, rs, job, s)
		}
		if err == nil {
			return synced, v, vw, j.stepDone(vw, job, eng.LossTrace(), synced, s)
		}
		if j.opts.FailOnPeerDown {
			return nil, v, vw, err
		}
		v, vw, job, eng, err = j.recover(w, v, vw, job, eng, err, s)
		if err != nil {
			return nil, v, vw, err
		}
	}
}

// stepDone is view rank 0's end of a step: the stream's last loss is
// recorded for Result and the Checkpoint hook sees the synced state.
func (j *ElasticJob) stepDone(vw *cluster.Worker, job *StepJob, trace []float64, synced *dtd.State, s int) error {
	if vw.Rank() != 0 {
		return nil
	}
	stats := job.statsOf(trace)
	if s == len(j.snapshots)-1 {
		j.mu.Lock()
		j.finalLoss = stats.Loss
		j.mu.Unlock()
	}
	if j.opts.Checkpoint == nil {
		return nil
	}
	return j.opts.Checkpoint(s, synced, stats)
}

// chaosSlow burns this rank's scripted compute handicap — extra
// nanoseconds proportional to the planned load it was assigned —
// inside a compute-phase span, so the plane's detector observes it as
// genuinely slower hardware. A no-op unless the rank is scripted in
// SlowRanks. The "/mttkrp" suffix is what routes the padding into the
// detector's compute-time statistic (obs.PhaseOf); the "chaos/" prefix
// keeps it distinguishable from real kernels in timelines.
func (j *ElasticJob) chaosSlow(w, vw *cluster.Worker, job *StepJob) {
	h := j.opts.SlowRanks[w.Rank()]
	if h <= 0 {
		return
	}
	sp := vw.Obs().Span("chaos/mttkrp")
	defer sp.End()
	time.Sleep(time.Duration(h * job.plan.RankLoads()[vw.Rank()]))
}

// recover handles one mid-step rank death: revoke the dead rank's
// epoch (unblocking survivors stuck on live-but-blocked peers), agree
// the shrunken view, rebalance the plan with minimal movement, migrate
// the moved factor rows, absorb the dead rank's rows from local
// replicas, refresh the row subscriptions, and rebind the engine to the
// new epoch with warm factors. Any other cause — a scripted crash of
// this rank included — is returned as it is.
func (j *ElasticJob) recover(w *cluster.Worker, v cluster.View, vw *cluster.Worker, job *StepJob, eng *dtd.Sweep, cause error, s int) (cluster.View, *cluster.Worker, *StepJob, *dtd.Sweep, error) {
	pd, ok := cluster.AsPeerDown(cause)
	if !ok {
		return v, vw, job, eng, cause
	}
	dead := pd.Rank
	sp := vw.Obs().Span("elastic/recover")
	defer sp.End()
	vw.Revoke(dead)
	vw.ClearFault()
	vc := cluster.ViewChange{Dead: []int{dead}}
	if !v.Contains(dead) {
		// A non-member went dark: a drained rank or a finished spare,
		// whose process exit a TCP failure detector reports exactly like
		// a crash. Membership is unchanged, but the poison aborted this
		// rank's sweep at an arbitrary point (and the revocation above
		// aborts everyone else), so the members still run a transition:
		// the empty change bumps the epoch, fencing off the aborted
		// sweep's in-flight messages before the warm restart.
		vc = cluster.ViewChange{}
	}
	next, err := cluster.AgreeView(w, v, vc)
	if err != nil {
		return v, vw, job, eng, fmt.Errorf("core: recovering from down rank %d: %w", dead, err)
	}
	newPlan, err := dplan.RebuildRebalanced(job.plan, v, next)
	if err != nil {
		return v, vw, job, eng, err
	}
	vw2, err := w.ViewWorker(next)
	if err != nil {
		return v, vw, job, eng, err
	}
	d := dplan.ComputeDelta(job.plan, v, newPlan, next)
	full := eng.Factors()
	eng.Close()

	base := vw2.MetricsSnapshot()
	if err := dplan.Migrate(vw2, d, full); err != nil {
		return v, vw, job, eng, err
	}
	// Refresh every subscription under the new plan: the aborted sweep
	// left replicas unevenly fresh across ranks, and the old epoch's
	// in-flight rows are fenced off, so each subscriber re-pulls from
	// the (warm) owners before the Gram state is re-established.
	for m := range full {
		if err := dplan.ExchangeRows(vw2, newPlan, m, full[m], false); err != nil {
			return v, vw, job, eng, err
		}
	}
	sent := vw2.MetricsSnapshot().BytesSent - base.BytesSent

	absorbed := 0
	for m := range d.Absorbed {
		absorbed += len(d.Absorbed[m][vw2.Rank()])
	}
	o := vw2.Obs()
	o.Counter("elastic.epochs").Add(1)
	o.Counter("elastic.recoveries").Add(1)
	o.Counter("elastic.absorbed.rows").Add(int64(absorbed))
	fill := func(t *TransitionStats) {
		t.Step = s
		t.Dead = append([]int(nil), vc.Dead...)
		t.MovedRows = d.MovedRows()
		t.AbsorbedRows = d.AbsorbedRows()
	}
	if vw2.Rank() != 0 {
		fill = nil
	}
	j.record(next.Epoch, sent, fill)

	job2 := job.withPlan(newPlan, next.Size())
	return next, vw2, job2, job2.bind(vw2, full), nil
}

// withPlan rebinds a step job to a rebalanced plan for a different
// member count; the step's shared sweep inputs carry over unchanged.
func (j *StepJob) withPlan(plan *dplan.Plan, workers int) *StepJob {
	opts := j.opts
	opts.Workers = workers
	opts.Parts = workers
	// The recovery re-plan minimises movement from the old assignment
	// (partition.Rebalance), ignoring cost weights — and the old weights
	// are sized for the old view anyway. The next step's fresh plan
	// re-applies the detector's world-keyed weights via stepOpts.
	opts.RankWeights = nil
	return &StepJob{
		opts:   opts,
		sweep:  j.sweep,
		plan:   plan,
		algo:   make([]cluster.Metrics, workers),
		caches: newCaches(workers),
	}
}

// syncState assembles the step's result on view rank 0 (each owner
// contributes its owned rows) and broadcasts it, so every member —
// not just rank 0 — enters the next fence holding the full state. That
// replication is what makes fences cheap: drains hand off nothing and
// failures absorb from local replicas.
func (j *ElasticJob) syncState(vw *cluster.Worker, job *StepJob, full []*mat.Dense) (*dtd.State, error) {
	assembled, err := dplan.GatherOwnedRows(vw, job.plan.OwnedSlices, full)
	if err != nil {
		return nil, err
	}
	r := job.opts.Rank
	factors := make([]*mat.Dense, len(full))
	for m := range full {
		var enc []byte
		if vw.Rank() == 0 {
			enc = cluster.EncodeFloat64s(assembled[m].Data)
		}
		got, err := vw.BroadcastBytes(0, enc)
		if err != nil {
			return nil, err
		}
		vals, err := cluster.DecodeFloat64s(got)
		if err != nil {
			return nil, err
		}
		if len(vals) != full[m].Rows*r {
			return nil, fmt.Errorf("core: state sync mode %d: %d values for %dx%d", m, len(vals), full[m].Rows, r)
		}
		factors[m] = mat.NewFrom(full[m].Rows, r, vals)
	}
	return stateOf(factors), nil
}
