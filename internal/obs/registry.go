// Package obs is the repo's zero-dependency observability layer: a
// concurrency-safe metrics registry (counters, gauges, fixed-bucket
// histograms), a lightweight span tracer with an in-memory ring buffer
// (trace.go), structured logging helpers over log/slog (log.go), the
// Prometheus text encoder (prometheus.go) and a runtime sampler
// (runtime.go). cmd/worker's -debug-addr listener serves them.
//
// The design constraint is the same as the workspace arena's: the hot
// path must not allocate. Callers resolve named instruments once (at
// worker-state construction, matching PR 2's buffer-sizing discipline)
// and update them through the returned handles; Counter.Add, Gauge.Set,
// Histogram.Observe and Span.End are all allocation-free, which
// alloc_test.go pins with testing.AllocsPerRun.
//
// Every instrument handle is nil-safe: methods on a nil *Counter,
// *Gauge, *Histogram or the zero Span are no-ops, so instrumented code
// needs no "is observability on?" branches.
//
// Metric names are dot-separated paths, most-significant first:
// "mttkrp.rows", "allreduce.bytes", "transport.dial.retries". See
// DESIGN.md ("Observability") for the full naming scheme.
package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing int64 instrument.
type Counter struct {
	v atomic.Int64
}

// Add increases the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increases the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (zero on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 instrument holding the last set value.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the last set value (zero on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts float64 observations into fixed buckets. Bucket i
// counts observations <= uppers[i]; one implicit overflow bucket counts
// the rest. Observation is lock-free.
type Histogram struct {
	uppers []float64 // sorted ascending, fixed at creation
	counts []atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(uppers []float64) *Histogram {
	u := append([]float64(nil), uppers...)
	sort.Float64s(u)
	return &Histogram{uppers: u, counts: make([]atomic.Int64, len(u)+1)}
}

// Observe records one value. No-op on a nil receiver.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// Binary search for the first upper bound >= v.
	lo, hi := 0, len(h.uppers)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.uppers[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistogramSnapshot is a histogram's state at one instant.
type HistogramSnapshot struct {
	Uppers []float64 `json:"uppers"` // bucket upper bounds; one overflow bucket follows
	Counts []int64   `json:"counts"` // len(Uppers)+1 entries
	Sum    float64   `json:"sum"`
}

// Count returns the total number of observations in the snapshot.
func (s HistogramSnapshot) Count() int64 {
	var t int64
	for _, c := range s.Counts {
		t += c
	}
	return t
}

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Uppers: append([]float64(nil), h.uppers...),
		Counts: make([]int64, len(h.counts)),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// Registry is a concurrency-safe name -> instrument table. Get-or-create
// lookups (Counter, Gauge, Histogram) take a lock and may allocate;
// callers on the hot path resolve handles once up front and use the
// handles, which never touch the registry again.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// newRegistry returns an empty registry.
func newRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a no-op handle) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// (a no-op handle) on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use. Later calls return the existing
// histogram regardless of the bounds they pass. Returns nil (a no-op
// handle) on a nil registry.
func (r *Registry) Histogram(name string, uppers []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h := r.histograms[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.histograms[name]; h == nil {
		h = newHistogram(uppers)
		r.histograms[name] = h
	}
	return h
}

// MetricsSnapshot is a registry's state at one instant, JSON-friendly.
type MetricsSnapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies every instrument's current value. Safe to call while
// the instruments are being updated. Returns the zero snapshot on a nil
// registry.
func (r *Registry) Snapshot() MetricsSnapshot {
	var s MetricsSnapshot
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(r.gauges))
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.histograms) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(r.histograms))
		for name, h := range r.histograms {
			s.Histograms[name] = h.snapshot()
		}
	}
	return s
}

// Sub returns the counter-wise difference s − base: counters subtract,
// gauges and histogram sums keep their current values with histogram
// bucket counts subtracted. Used to report per-Run deltas on long-lived
// registries (a TCPNode's registry outlives each Run).
func (s MetricsSnapshot) Sub(base MetricsSnapshot) MetricsSnapshot {
	out := MetricsSnapshot{Gauges: s.Gauges}
	if len(s.Counters) > 0 {
		out.Counters = make(map[string]int64, len(s.Counters))
		for name, v := range s.Counters {
			out.Counters[name] = v - base.Counters[name]
		}
	}
	if len(s.Histograms) > 0 {
		out.Histograms = make(map[string]HistogramSnapshot, len(s.Histograms))
		for name, h := range s.Histograms {
			b, ok := base.Histograms[name]
			if !ok || len(b.Counts) != len(h.Counts) {
				out.Histograms[name] = h
				continue
			}
			d := HistogramSnapshot{
				Uppers: h.Uppers,
				Counts: make([]int64, len(h.Counts)),
				Sum:    h.Sum - b.Sum,
			}
			for i := range h.Counts {
				d.Counts[i] = h.Counts[i] - b.Counts[i]
			}
			out.Histograms[name] = d
		}
	}
	return out
}
