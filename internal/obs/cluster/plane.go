// Package obscluster is the cluster-wide observability plane: the
// per-rank metrics and traces internal/obs records locally are gathered
// to the view coordinator at every step fence and merged into one
// cluster timeline and per-rank×phase table. The plane only observes:
// nothing it gathers feeds back into planning, so a run's results do
// not depend on its timings.
//
// A fence is one cluster.Round with view rank 0 as the coordinator:
// each member encodes a FenceRecord (phase-delta table, runtime gauges,
// spans since the last fence) into a pooled transport buffer as its
// payload; the coordinator absorbs records in arrival order, and the
// round's broadcast back is empty — it only releases the members, which
// is what makes the fence the step's barrier. All steady-state work —
// encoding, interned decoding, the round trip — performs zero heap
// allocations (alloc_test.go pins it), and the wire cost is exactly
// accountable from the record contents (plane_test.go checks sent ==
// received == the formula, the same discipline the cluster collectives'
// byte accounting is held to).
//
// Trace identity: every span already carries (rank, epoch, snapshot,
// iter) stamps from the obs tracer; the record header adds the world
// rank and fence step, so the merged timeline can distinguish
// post-transition spans from pre-transition ones.
package obscluster

import (
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
// member constructs one (the aggregator is only exercised on whichever
// rank is view rank 0, but membership can shift across epochs, so each
// rank keeps the full state ready). Not safe for concurrent Fence
// calls; Snapshot and Timeline are safe to call from other goroutines
// (debug scrapes) while Fence runs.
type Plane struct {
	o   *obs.Obs
	rep *reporter
	agg *Aggregator

	fences     *obs.Counter
	gatherHist *obs.Histogram

	peers []int // view ranks 1..size-1: the round's non-coordinators
}

// fenceGatherBuckets spans 1µs to 1s in decades — fence aggregation is
// microseconds in-process and network-bound on TCP.
var fenceGatherBuckets = []float64{1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9}

// NewPlane builds a plane over one rank's obs bundle. worldSize is the
// fixed world (rank-slot count) the cluster was launched with; fence
// records are indexed by world rank so state survives view changes.
func NewPlane(o *obs.Obs, worldSize int) *Plane {
	return &Plane{
		o:          o,
		rep:        newReporter(o, spanCap),
		agg:        newAggregator(worldSize),
		fences:     o.Counter("plane.fences"),
		gatherHist: o.Histogram("plane.fence.gather.ns", fenceGatherBuckets),
	}
}

// Fence runs one fence round of the plane. Every current member must
// call it in lockstep: epoch is the view epoch and step the stream step
// just completed. It returns once the coordinator has absorbed every
// member's record.
func (p *Plane) Fence(w *cluster.Worker, epoch int64, step int) error {
	sp := p.o.Span("plane/fence")
	defer sp.End()
	p.fences.Inc()
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
	release := func() []byte {
		p.agg.fenced(epoch, step)
		p.gatherHist.Observe(float64(time.Since(start).Nanoseconds()))
		return nil
	}
	out, err := cluster.Round(w, 0, p.peers[:w.Size()-1], w.StreamTag("obsfence"), w.StreamTag("obsfence/dec"),
		payload, absorb, release)
	if err != nil {
		return err
	}
	w.PutBuf(out)
	return nil
}
