package obs

import "log/slog"

// Obs bundles one scope's instruments: a metrics registry, a span
// tracer, and a structured logger. The cluster transports own one per
// rank (or per node for TCP) and hand it to the algorithms through
// cluster.Worker.Obs; job-level planning code receives one through the
// algorithm Options. A nil *Obs is fully inert — every method returns a
// no-op handle — so instrumented code never branches on "observability
// enabled".
type Obs struct {
	Reg   *Registry
	Trace *Tracer
	Log   *slog.Logger
}

// New returns a live bundle: fresh registry, default-capacity tracer,
// and a discarding logger (replace Log to enable output).
func New() *Obs {
	return &Obs{Reg: newRegistry(), Trace: newTracer(0), Log: Discard()}
}

// Counter resolves a named counter handle. Nil-safe.
func (o *Obs) Counter(name string) *Counter {
	if o == nil {
		return nil
	}
	return o.Reg.Counter(name)
}

// Gauge resolves a named gauge handle. Nil-safe.
func (o *Obs) Gauge(name string) *Gauge {
	if o == nil {
		return nil
	}
	return o.Reg.Gauge(name)
}

// Histogram resolves a named histogram handle. Nil-safe.
func (o *Obs) Histogram(name string, uppers []float64) *Histogram {
	if o == nil {
		return nil
	}
	return o.Reg.Histogram(name, uppers)
}

// Span opens a span on the bundle's tracer. Nil-safe.
func (o *Obs) Span(name string) Span {
	if o == nil {
		return Span{}
	}
	return o.Trace.Start(name)
}

// SetSnapshot stamps subsequent spans with the streaming-step index.
func (o *Obs) SetSnapshot(snap int) {
	if o != nil {
		o.Trace.SetSnapshot(snap)
	}
}

// SetEpoch stamps subsequent spans with the cluster view epoch.
func (o *Obs) SetEpoch(epoch int64) {
	if o != nil {
		o.Trace.SetEpoch(epoch)
	}
}

// SetIter stamps subsequent spans with the ALS sweep index.
func (o *Obs) SetIter(iter int) {
	if o != nil {
		o.Trace.SetIter(iter)
	}
}

// Logger returns the bundle's logger, or a discarding logger when the
// bundle or its Log field is nil.
func (o *Obs) Logger() *slog.Logger {
	if o == nil || o.Log == nil {
		return Discard()
	}
	return o.Log
}

// RankSnapshot is one rank's observability state at a point in time:
// the metric values, the per-phase timing aggregates, and the retained
// span events. cluster.RankStats carries one per rank after a run.
type RankSnapshot struct {
	Metrics MetricsSnapshot `json:"metrics"`
	Phases  []PhaseStat     `json:"phases,omitempty"`
	Spans   []SpanEvent     `json:"spans,omitempty"`
}

// Baseline marks a bundle's state so a later SnapshotSince can report
// only what happened after the mark — how a long-lived TCP node scopes
// its counters to one Run.
type Baseline struct {
	metrics MetricsSnapshot
	phases  []PhaseStat
	spanSeq uint64
}

// Baseline captures the bundle's current state. Nil-safe (the zero
// Baseline subtracts nothing).
func (o *Obs) Baseline() Baseline {
	if o == nil {
		return Baseline{}
	}
	return Baseline{
		metrics: o.Reg.Snapshot(),
		phases:  o.Trace.Phases(),
		spanSeq: o.Trace.Count(),
	}
}

// Snapshot captures the bundle's full state since creation.
func (o *Obs) Snapshot() RankSnapshot {
	return o.SnapshotSince(Baseline{})
}

// SnapshotSince captures the bundle's state relative to a baseline:
// counters and phase aggregates as deltas, spans recorded after the
// mark. Nil-safe (returns the zero snapshot).
func (o *Obs) SnapshotSince(b Baseline) RankSnapshot {
	if o == nil {
		return RankSnapshot{}
	}
	spans, _ := o.Trace.AppendEventsSince(b.spanSeq, nil)
	return RankSnapshot{
		Metrics: o.Reg.Snapshot().Sub(b.metrics),
		Phases:  subPhases(o.Trace.Phases(), b.phases),
		Spans:   spans,
	}
}
