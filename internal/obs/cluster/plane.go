// Package obscluster is the cluster-wide observability plane: the
// per-rank metrics and traces internal/obs records locally are gathered
// to the view coordinator at every step fence, merged into one cluster
// timeline and per-rank×phase table, and fed to an imbalance detector
// whose decision is broadcast back so all ranks act on identical
// information — the closed loop that lets the elastic driver
// re-partition a skewed stream without any membership change.
//
// The fence protocol mirrors the data-path collectives: each member
// encodes a FenceRecord (phase-delta table, runtime gauges, spans since
// the last fence) into a pooled transport buffer and sends it to view
// rank 0; the coordinator absorbs records in arrival order, runs the
// EWMA detector, and sends every member the Decision. All steady-state
// work — encoding, interned decoding, EWMA updates, the decision
// round-trip — performs zero heap allocations (alloc_test.go pins it),
// and the wire cost is exactly accountable from the record contents
// (plane_test.go checks sent == received == the formula, the same
// discipline the cluster collectives' byte accounting is held to).
//
// Trace identity: every span already carries (rank, epoch, snapshot,
// iter) stamps from the obs tracer; the record header adds the world
// rank and fence step, so the merged timeline can distinguish
// post-transition spans from pre-transition ones.
package obscluster

import (
	"fmt"
	"time"

	"dismastd/internal/cluster"
	"dismastd/internal/obs"
)

// Plane capacities. The spans one rank ships per fence are capped at
// spanCap: when a fence window recorded more, the most recent are kept
// — the aggregates in the phase table are never truncated, only the raw
// timeline. The merged span ring at the coordinator holds timelineCap.
const (
	spanCap     = 1024
	timelineCap = 8192
)

// Plane is one rank's handle on the cluster observability plane. Every
// member constructs one (the aggregator and detector are only exercised
// on whichever rank is view rank 0, but membership can shift across
// epochs, so each rank keeps the full state ready). Not safe for
// concurrent Fence calls; Snapshot and Timeline are safe to call from
// other goroutines (debug scrapes) while Fence runs.
type Plane struct {
	o   *obs.Obs
	rep *reporter
	agg *Aggregator
	det *Detector

	fences     *obs.Counter
	suggested  *obs.Counter
	fired      *obs.Counter
	cvGauge    *obs.Gauge
	loadCV     *obs.Gauge
	durCV      *obs.Gauge
	gatherHist *obs.Histogram

	weights []float64 // non-root decision decode scratch
}

// fenceGatherBuckets spans 1µs to 1s in decades — fence aggregation is
// microseconds in-process and network-bound on TCP.
var fenceGatherBuckets = []float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// NewPlane builds a plane over one rank's obs bundle. armed lets the
// imbalance detector fire; disarmed it only suggests. worldSize is the
// fixed world (rank-slot count) the cluster was launched with; fence
// records are indexed by world rank so state survives view changes.
func NewPlane(armed bool, o *obs.Obs, worldSize int) *Plane {
	p := &Plane{
		o:          o,
		rep:        newReporter(o, spanCap),
		agg:        newAggregator(worldSize),
		det:        newDetector(armed, worldSize),
		fences:     o.Counter("plane.fences"),
		suggested:  o.Counter("elastic.rebalance.suggested"),
		fired:      o.Counter("elastic.rebalance.fired"),
		cvGauge:    o.Gauge("elastic.imbalance.cv"),
		loadCV:     o.Gauge("elastic.imbalance.load.cv"),
		durCV:      o.Gauge("elastic.imbalance.duration.cv"),
		gatherHist: o.Histogram("plane.fence.gather.ns", fenceGatherBuckets),
		weights:    make([]float64, 0, worldSize),
	}
	return p
}

// Fence runs one fence round of the plane. Every current member must
// call it in lockstep: members is the view's world-rank list (view-rank
// order, so members[w.Rank()] == w.WorldRank()), epoch the view epoch,
// step the stream step just completed, and loads the per-member planned
// nnz loads of that step (deterministically identical on every rank —
// dplan.Plan.RankLoads). The returned Decision is byte-identical on
// every member. Its Weights slice aliases plane scratch overwritten by
// the next Fence; callers acting on it must copy.
func (p *Plane) Fence(w *cluster.Worker, members []int, epoch int64, step int, loads []float64) (Decision, error) {
	sp := p.o.Span("plane/fence")
	defer sp.End()
	p.fences.Inc()
	if len(members) != w.Size() || len(loads) != w.Size() {
		return Decision{}, fmt.Errorf("obscluster: fence with %d members, %d loads for %d ranks",
			len(members), len(loads), w.Size())
	}
	tag := w.StreamTag("obsfence")
	dtag := w.StreamTag("obsfence/dec")
	rec := p.rep.collect(p.o.Trace, w.WorldRank(), epoch, step)

	if w.Rank() != 0 {
		buf := w.GetBuf(rec.size())
		rec.encode(buf)
		if err := w.SendPooled(0, tag, buf); err != nil {
			return Decision{}, err
		}
		payload, err := w.Recv(0, dtag)
		if err != nil {
			return Decision{}, err
		}
		dec, derr := decodeDecision(payload, &p.weights)
		w.PutBuf(payload)
		if derr != nil {
			return Decision{}, derr
		}
		p.noteDecision(dec)
		return dec, nil
	}

	// Coordinator: absorb own record without touching the wire, drain
	// the peers in arrival order, evaluate, broadcast the decision.
	start := time.Now()
	p.agg.absorbLocal(rec)
	pending := p.rep.pending[:0]
	for r := 1; r < w.Size(); r++ {
		pending = append(pending, r)
	}
	p.rep.pending = pending
	for len(pending) > 0 {
		i, payload, err := w.RecvAny(tag, pending)
		if err != nil {
			return Decision{}, err
		}
		pending[i] = pending[len(pending)-1]
		pending = pending[:len(pending)-1]
		aerr := p.agg.absorb(payload)
		w.PutBuf(payload)
		if aerr != nil {
			return Decision{}, aerr
		}
	}
	p.rep.pending = pending
	dec := p.agg.evaluate(p.det, members, loads, epoch, step)
	p.gatherHist.Observe(float64(time.Since(start).Nanoseconds()))
	for r := 1; r < w.Size(); r++ {
		buf := w.GetBuf(decisionSize(len(dec.Weights)))
		encodeDecision(buf, dec)
		if err := w.SendPooled(r, dtag, buf); err != nil {
			return Decision{}, err
		}
	}
	p.noteDecision(dec)
	return dec, nil
}

// noteDecision publishes the decision into this rank's registry —
// every member carries the same gauges and counters, so any worker's
// /metrics shows the cluster's imbalance state.
func (p *Plane) noteDecision(dec Decision) {
	p.cvGauge.Set(dec.CV)
	p.loadCV.Set(dec.LoadCV)
	p.durCV.Set(dec.DurCV)
	if dec.Suggested {
		p.suggested.Inc()
		p.o.Span("elastic/rebalance.suggested").End()
	}
	if dec.Fire {
		p.fired.Inc()
	}
}
