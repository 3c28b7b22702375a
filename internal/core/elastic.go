// Multi-step cluster driver: DisMASTD streaming across view changes.
//
// Step/StepJob run one step on a fixed worker set. ElasticJob drives a
// sequence of snapshot steps in one cluster run — the driver cmd/worker
// runs every stream through — over a cluster whose membership may
// change while the stream is running:
//
//   - A rank crashing mid-step surfaces as a rank-attributed
//     ErrPeerDown on every survivor (drain-then-fail mailboxes plus
//     epoch revocation break transitive collective blocks). One view
//     round agrees the shrunken view and the step to restart, the least
//     any survivor proposes; every step ends with the observability
//     plane's fence gather, so no survivor has left a step another is
//     still syncing. They re-run it from its fence state, which every
//     member still holds: the step a static cluster of the survivors
//     would run, from the same state, whenever the rank died. No factor
//     row crosses the wire, and the final fence decides nothing (the
//     last-fence rule, see stream). (FailOnPeerDown selects the other
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
// Membership never changes the maths: every step runs the same
// dtd.Sweep engine as a Step call, bound to the plan for its view.
// Without detector weights a run therefore reproduces, bitwise, the
// chain of Step calls over the member counts its steps completed at —
// with no membership events, the plain chain.

package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
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
// are ignored (each step plans for its view size, one partition per
// member).
type ElasticOptions struct {
	Options

	World int // total ranks in the world cluster, members + spares

	// Script is the membership script (ParseScript), known to every
	// rank: admission is deterministic, no join or drain request crosses
	// the wire. The world ranks no join names are the members before
	// the first event; the joiners must be the highest world ranks.
	// Events at negative steps fired before this run's first snapshot —
	// a resumed run's checkpointed steps — so the run starts from the
	// membership they leave. NewElasticJob replays the script over
	// membership and refuses any event that cannot fire.
	Script string

	// FailOnPeerDown makes a mid-step rank death fatal: every survivor's
	// RunWorker returns the rank-attributed ErrPeerDown instead of
	// absorbing the dead rank and continuing. Absorbing keeps the stream
	// alive: the survivors re-run the interrupted step from its fence
	// state, so the result is the Step chain that switches to the
	// survivors at that step; failing keeps every completed step's state
	// exactly what a restart from its checkpoint reproduces.
	FailOnPeerDown bool

	// Checkpoint, when set, is called by view rank 0 after every step's
	// state sync (and observability fence) with the synced post-step
	// state and the step's statistics (Cluster left nil) — for the last
	// step, by each survivor the last-fence rule ends. An error stops
	// that rank's run.
	Checkpoint func(step int, st *dtd.State, stats *StepStats) error

	// RebalanceOnImbalance arms the cluster observability plane's
	// imbalance detector. The plane always runs: after each step's state
	// sync every member gathers its metric deltas, runtime gauges and
	// fresh spans to the view coordinator, whose detector broadcasts its
	// verdict back. Armed, a smoothed per-rank imbalance CV over the
	// threshold makes the next membership fence bump the view epoch (no
	// membership change) and the stream re-partition with the
	// detector's cost weights — a live rebalance of a skewed stream.
	RebalanceOnImbalance bool

	// PlaneReady, when set, is called once per world rank with that
	// rank's freshly built plane, before any fence runs — the hook
	// cmd/worker uses to serve the plane on /debug/state and
	// /debug/timeline.
	PlaneReady func(world int, p *obscluster.Plane)

	// slowRanks, set only by this package's tests, scripts heterogeneous
	// hardware: world rank → extra compute nanoseconds per unit of
	// planned load, burned inside a compute-phase span every step. The
	// observability plane sees the padding exactly as it would a member
	// with slower cores, which is what the rebalance chaos test uses to
	// provoke the detector deterministically.
	slowRanks map[int]float64
}

// killSweep is the 0-based sweep at whose start a kill's victim
// crashes: one completed sweep into its step.
const killSweep = 1

// ScriptEvent is one membership event at stream step Step: Verb "kill"
// crashes world rank Rank mid-step, at the start of its second sweep;
// "join" admits that spare at the step's fence, "drain" retires that
// member there.
type ScriptEvent struct {
	Verb       string
	Rank, Step int
}

// String is the event's entry in the script's text form.
func (e ScriptEvent) String() string { return fmt.Sprintf("%s:%d:%d", e.Verb, e.Rank, e.Step) }

// ParseScript parses a membership script, verb:rank:step entries joined
// by commas (e.g. "kill:1:1,join:3:2"), into its events in the order
// they fire: by step, and within a step drain and join at its fence
// before kill. A negative step is one before the run's first snapshot
// (see ElasticOptions.Script). It refuses, naming the entry, a
// malformed one, an unknown verb and two events of one verb at one
// step.
func ParseScript(s string) ([]ScriptEvent, error) {
	if s == "" {
		return nil, nil
	}
	var out []ScriptEvent
	for _, entry := range strings.Split(s, ",") {
		verb, rest, _ := strings.Cut(entry, ":")
		rankText, stepText, _ := strings.Cut(rest, ":")
		rank, err1 := strconv.Atoi(rankText)
		step, err2 := strconv.Atoi(stepText)
		if err1 != nil || err2 != nil || rank < 0 {
			return nil, fmt.Errorf("entry %q is not verb:rank:step", entry)
		}
		if verb != "kill" && verb != "join" && verb != "drain" {
			return nil, fmt.Errorf("entry %q: unknown verb %q (kill, join or drain)", entry, verb)
		}
		out = append(out, ScriptEvent{verb, rank, step})
	}
	slices.SortStableFunc(out, func(a, b ScriptEvent) int { return cmp.Or(a.Step-b.Step, strings.Compare(a.Verb, b.Verb)) })
	for i := 1; i < len(out); i++ {
		if a, b := out[i-1], out[i]; a.Step == b.Step && a.Verb == b.Verb {
			return nil, fmt.Errorf("entries %q and %q: two %ss at step %d", a, b, b.Verb, b.Step)
		}
	}
	return out, nil
}

// checkScript replays a parsed script over membership and returns the
// world ranks that are members when the run's first step starts. The
// world ranks no join names are the members before the first event,
// and must be ranks 0..k-1; the events at negative steps leave the
// membership the run starts from. A kill or drain must name a member,
// a join a spare that never joined, and no step may be left without a
// member.
func checkScript(script []ScriptEvent, world, steps int) ([]int, error) {
	const member, spare, gone = 0, 1, 2
	state := make([]int, world)
	members := world
	for _, ev := range script {
		if ev.Step >= steps || ev.Rank >= world {
			return nil, fmt.Errorf("core: script entry %q is not in %d steps of a world of %d", ev, steps, world)
		}
		if ev.Verb == "join" && state[ev.Rank] == member {
			state[ev.Rank] = spare
			members--
		}
	}
	if members == 0 || slices.Contains(state[:members], spare) {
		return nil, fmt.Errorf("core: the %d scripted joiners are not the highest ranks of a world of %d above an initial member", world-members, world)
	}
	names := [...]string{member: "a member", spare: "a spare", gone: "gone"}
	n := members
	for _, ev := range script {
		want, next, delta := member, gone, -1
		if ev.Verb == "join" {
			want, next, delta = spare, member, 1
		}
		if st := state[ev.Rank]; st != want {
			return nil, fmt.Errorf("core: script entry %q: rank %d is %s at step %d", ev, ev.Rank, names[st], ev.Step)
		}
		if state[ev.Rank], n = next, n+delta; n == 0 {
			return nil, fmt.Errorf("core: script entry %q leaves step %d with no member", ev, ev.Step)
		}
	}
	// Replayed, a rank joins at most once and leaves after that: it is
	// a member at step 0 unless it still waits to join or left earlier.
	var initial []int
	for r := range world {
		if !slices.ContainsFunc(script, func(ev ScriptEvent) bool { return ev.Rank == r && (ev.Verb == "join") == (ev.Step >= 0) }) {
			initial = append(initial, r)
		}
	}
	return initial, nil
}

// TransitionStats records one membership transition (a fence-admitted
// join/drain or a mid-step failure recovery).
type TransitionStats struct {
	Step  int
	Epoch int64
	Dead  []int // world ranks lost mid-step
	Join  []int // world ranks admitted
	Leave []int // world ranks drained

	// BytesSent is the state the transition shipped, summed over ranks:
	// a joiner's boot transfer. Recoveries, drains and rebalances ship
	// none — every member already holds the fence state — and the view
	// agreement's control messages are not counted.
	BytesSent int64

	// Rebalance marks an epoch bump triggered by the imbalance detector
	// rather than a membership change: same members, new plan weights.
	// CV is the detector statistic that fired it; the next step simply
	// plans differently.
	Rebalance bool
	CV        float64
}

// ElasticJob drives len(snapshots) streaming steps over an elastic
// world cluster. Build one with NewElasticJob, run RunWorker once per
// world rank — on a cluster.Local, or a TCP cluster with heartbeats so
// a dead rank reads as down — then read Result.
type ElasticJob struct {
	opts      ElasticOptions
	script    []ScriptEvent
	members   []int // world ranks that are members at step 0
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
	if o.World <= 0 {
		return nil, fmt.Errorf("core: world of %d ranks", o.World)
	}
	script, err := ParseScript(o.Script)
	if err != nil {
		return nil, fmt.Errorf("core: script %w", err)
	}
	members, err := checkScript(script, o.World, len(snapshots))
	if err != nil {
		return nil, err
	}
	probe := o.Options
	probe.Workers = len(members)
	if _, err := probe.withDefaults(); err != nil {
		return nil, err
	}
	for r, h := range o.slowRanks {
		if r < 0 || r >= o.World || h < 0 || math.IsNaN(h) {
			return nil, fmt.Errorf("core: scripted handicap %v on rank %d of world %d", h, r, o.World)
		}
	}
	return &ElasticJob{
		opts:      o,
		script:    script,
		members:   members,
		prev:      prev,
		snapshots: snapshots,
		byEpoch:   map[int64]*TransitionStats{},
	}, nil
}

// Result returns the final state (recorded with the last step's
// Checkpoint), the last step's loss, and the membership transitions in
// epoch order. Valid after every world rank's RunWorker has returned.
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
// member, plus the current detector cost weights mapped from world ranks
// into view-rank order.
func (j *ElasticJob) stepOpts(v cluster.View, rs *rankStream) Options {
	opts := j.opts.Options
	opts.Workers = v.Size()
	opts.Parts = v.Size()
	if rs.weightByWorld != nil {
		rw := make([]float64, v.Size())
		for i, world := range v.Members {
			rw[i] = rs.weightByWorld[world]
		}
		opts.rankWeights = rw
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
	rs := &rankStream{plane: obscluster.NewPlane(j.opts.RebalanceOnImbalance, w.Obs(), w.Size())}
	if j.opts.PlaneReady != nil {
		j.opts.PlaneReady(w.Rank(), rs.plane)
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
	for i, rw := range job.opts.rankWeights {
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

// joinStep reports the step at which a world rank outside the initial
// view joins, or -1 for a rank gone before the run's first step (one a
// negative-step drain or kill removed).
func (j *ElasticJob) joinStep(world int) int {
	at := slices.IndexFunc(j.script, func(ev ScriptEvent) bool { return ev.Verb == "join" && ev.Rank == world && ev.Step >= 0 })
	if at < 0 {
		return -1
	}
	return j.script[at].Step
}

// scripted returns the world ranks the script names for verb at step
// s: none or one.
func (j *ElasticJob) scripted(verb string, s int) []int {
	var ranks []int
	for _, ev := range j.script {
		if ev.Verb == verb && ev.Step == s {
			ranks = append(ranks, ev.Rank)
		}
	}
	return ranks
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
// step 0; spares — the ranks the script joins — wait for adoption and
// join mid-stream; a rank gone before step 0 returns at once.
func (j *ElasticJob) RunWorker(w *cluster.Worker) error {
	me := w.Rank()
	v := cluster.View{Members: j.members}
	if !v.Contains(me) {
		s := j.joinStep(me)
		if s < 0 {
			return nil
		}
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
// marks a joiner entering after its admission fence already ran. Step s
// runs from prev, the fence state entering it. before, the state that
// entered step s-1, is kept until step s's sync completes: a survivor
// that finished step s-1 can still be told to restart it (see recover).
//
// The last-fence rule: the final fence decides nothing, so a member
// whose final sync completed proposes the step after the last. If a peer
// leaves that recovery round, it got the decision and finished: every
// survivor holds the synced state, and this member ends the run with it,
// recording Result and the last Checkpoint in place of view rank 0.
func (j *ElasticJob) stream(w *cluster.Worker, v cluster.View, vw *cluster.Worker, prev *dtd.State, start int, adopted bool, rs *rankStream) error {
	var before *dtd.State
	last := len(j.snapshots) - 1
	fenced := adopted // step s's fence already ran: a joiner's first step, a restarted step
	for s := start; s <= last; {
		w.Obs().SetSnapshot(s)
		if !fenced {
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
		synced, stats, err := j.runStep(w, v, vw, prev, s, rs)
		restart := s + 1
		if err != nil {
			if j.opts.FailOnPeerDown {
				return err
			}
			propose := s // the last-fence rule
			if s == last && synced != nil {
				propose = s + 1
			}
			var rerr error
			v, vw, restart, rerr = j.recover(w, v, vw, err, propose)
			if _, down := cluster.AsPeerDown(rerr); down && propose > s {
				return j.stepDone(s, synced, stats)
			}
			if rerr != nil {
				return rerr
			}
		}
		switch {
		case restart == s+1:
			if vw.Rank() == 0 {
				if err := j.stepDone(s, synced, stats); err != nil {
					return err
				}
			}
			before, prev = prev, synced
		case restart == s:
		case restart == s-1 && before != nil:
			prev = before
		default:
			return fmt.Errorf("core: survivors agreed to restart step %d, this rank is in step %d", restart, s)
		}
		s, fenced = restart, restart <= s
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
	// Admission follows the shared script, so every member derives the
	// same change without exchanging requests.
	vc := cluster.ViewChange{Join: j.scripted("join", s), Leave: j.scripted("drain", s)}
	// The staged fire is consumed either way: a membership change
	// re-partitions (with the new weights) on its own epoch bump.
	rebalance := rs.pending && vc.Empty()
	rs.pending = false
	if vc.Empty() && !rebalance {
		return v, vw, true, nil
	}
	next, _, err := cluster.AgreeView(w, v, vc, s)
	if err != nil {
		return v, vw, false, fmt.Errorf("core: fence at step %d: %w", s, err)
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

// runStep runs step s on the view from prev, the fence state every
// member holds: the step a static cluster of the view's members runs.
// Returns the synced post-step state and the step's statistics — also
// when only the fence after the sync failed.
func (j *ElasticJob) runStep(w *cluster.Worker, v cluster.View, vw *cluster.Worker, prev *dtd.State, s int, rs *rankStream) (*dtd.State, *StepStats, error) {
	job, err := NewStepJob(prev, j.snapshots[s], j.stepOpts(v, rs))
	if err != nil {
		return nil, nil, err
	}
	eng, exch := job.bindRank(vw)
	defer eng.Close()
	victims := j.scripted("kill", s)
	err = eng.Run(func(sweep int) error {
		if sweep == killSweep && slices.Contains(victims, w.Rank()) {
			return fmt.Errorf("%w: rank %d at step %d sweep %d", ErrScriptedCrash, w.Rank(), s, sweep)
		}
		return nil
	})
	vw.AddWork(eng.Work())
	if err != nil {
		return nil, nil, err
	}
	j.chaosSlow(w, vw, job)
	synced, err := syncState(exch, eng.Factors())
	if err != nil {
		return nil, nil, err
	}
	stats := job.statsOf(eng.LossTrace())
	// Observability fence: lockstep with the state sync, so every member
	// contributes and receives the decision — and no member leaves the
	// step while another is still inside its sync.
	return synced, stats, j.obsFence(vw, v, rs, job, s)
}

// stepDone is the recording end of a step — view rank 0's, and under
// the last-fence rule that of every survivor that ended the run: the
// Checkpoint hook sees the synced state, and after the last step Result
// gets it with the step's loss.
func (j *ElasticJob) stepDone(s int, synced *dtd.State, stats *StepStats) error {
	if s == len(j.snapshots)-1 {
		j.mu.Lock()
		j.final, j.finalLoss = synced, stats.Loss
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
// slowRanks. The "/mttkrp" suffix is what routes the padding into the
// detector's compute-time statistic (obs.PhaseOf); the "chaos/" prefix
// keeps it distinguishable from real kernels in timelines.
func (j *ElasticJob) chaosSlow(w, vw *cluster.Worker, job *StepJob) {
	h := j.opts.slowRanks[w.Rank()]
	if h <= 0 {
		return
	}
	sp := vw.Obs().Span("chaos/mttkrp")
	defer sp.End()
	time.Sleep(time.Duration(h * job.plan.RankLoads()[vw.Rank()]))
}

// recover handles one mid-step rank death: revoke the dead rank's epoch
// (unblocking survivors stuck on live-but-blocked peers), then agree in
// one view round the shrunken view and the step every survivor
// restarts, and record the transition. step is this rank's proposal.
// Survivors need not be in the same step: one that received step s's
// fence decision before the coordinator died has gone on into step s+1
// while another fails inside step s. The step's collectives keep them at
// most one step apart, so restarting from the least step any survivor
// proposes — from the fence state each still holds — puts them back in
// lockstep. Any other cause — a scripted crash of this rank included —
// is returned as it is.
func (j *ElasticJob) recover(w *cluster.Worker, v cluster.View, vw *cluster.Worker, cause error, step int) (cluster.View, *cluster.Worker, int, error) {
	pd, ok := cluster.AsPeerDown(cause)
	if !ok {
		return v, vw, step, cause
	}
	dead := pd.Rank
	sp := vw.Obs().Span("elastic/recover")
	defer sp.End()
	vw.Revoke(dead)
	vw.ClearFault()
	vc := cluster.ViewChange{Dead: []int{dead}}
	next, restart, err := cluster.AgreeView(w, v, vc, step)
	if err != nil {
		return v, vw, step, fmt.Errorf("core: recovering from down rank %d: %w", dead, err)
	}
	vw2, err := w.ViewWorker(next)
	if err != nil {
		return v, vw, step, err
	}
	o := vw2.Obs()
	o.Counter("elastic.epochs").Add(1)
	o.Counter("elastic.recoveries").Add(1)
	if vw2.Rank() == 0 {
		j.record(next.Epoch, 0, func(t *TransitionStats) {
			t.Step = restart
			t.Dead = append([]int(nil), vc.Dead...)
		})
	}
	return next, vw2, restart, nil
}

// syncState has every owner broadcast its owned rows through the
// step's Exchanger (the sampled solver's owned-row exchange) and adopts
// the completed replicas as the step's result, so every member — not
// just rank 0 — enters the next fence holding the full state. That replication is what makes fences
// cheap and recovery local: drains hand off nothing, joiners boot from
// one member, and survivors restart a step from the state they hold.
// Every row comes verbatim from its owner, so all members hold the same
// bits.
func syncState(exch *dplan.Exchanger, full []*mat.Dense) (*dtd.State, error) {
	for m := range full {
		if err := exch.Exchange(m, full[m], true); err != nil {
			return nil, err
		}
	}
	return stateOf(full), nil
}
