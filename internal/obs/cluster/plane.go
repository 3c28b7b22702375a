// Package obscluster is the cluster-wide observability plane: the
// per-rank metrics and traces internal/obs records locally are gathered
// to the view coordinator at every step fence, merged into one cluster
// timeline and per-rank×phase table, and fed to an imbalance detector
// whose decision is broadcast back so all ranks act on identical
// information — the closed loop that lets the elastic driver
// re-partition a skewed stream without any membership change.
//
// A fence is one cluster.Round with view rank 0 as the coordinator:
// each member encodes a FenceRecord (phase-delta table, runtime gauges,
// spans since the last fence) into a pooled transport buffer as its
// payload; the coordinator absorbs records in arrival order, runs the
// EWMA detector, and the round broadcasts the encoded Decision, which
// every member — the coordinator too — decodes. All steady-state work —
// encoding, interned decoding, EWMA updates, the decision round-trip —
// performs zero heap allocations (alloc_test.go pins it),
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
	"slices"
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

	weights []float64 // decision decode scratch
	peers   []int     // view ranks 1..size-1: the round's non-coordinators
	decBuf  []byte    // the coordinator's encoded decision
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
	rec := p.rep.collect(p.o.Trace, w.WorldRank(), epoch, step)
	var payload []byte
	start := time.Now()
	if w.Rank() == 0 {
		p.agg.absorbLocal(rec) // the coordinator's own record never touches the wire
	} else {
		payload = w.GetBuf(rec.size())
		rec.encode(payload)
	}
	for len(p.peers) < w.Size()-1 {
		p.peers = append(p.peers, len(p.peers)+1)
	}
	absorb := func(_ int, in []byte) error { return p.agg.absorb(in) }
	decide := func() []byte {
		dec := p.agg.evaluate(p.det, members, loads, epoch, step)
		p.gatherHist.Observe(float64(time.Since(start).Nanoseconds()))
		n := decisionSize(len(dec.Weights))
		p.decBuf = slices.Grow(p.decBuf[:0], n)[:n]
		encodeDecision(p.decBuf, dec)
		return p.decBuf
	}
	out, err := cluster.Round(w, 0, p.peers[:w.Size()-1], w.StreamTag("obsfence"), w.StreamTag("obsfence/dec"),
		payload, absorb, decide)
	if err != nil {
		return Decision{}, err
	}
	dec, err := decodeDecision(out, &p.weights)
	w.PutBuf(out)
	if err != nil {
		return Decision{}, err
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
