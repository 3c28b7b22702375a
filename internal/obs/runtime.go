package obs

import "runtime"

// RuntimeSampler copies Go runtime health figures into registry gauges:
//
//	runtime.heap.bytes      live heap (MemStats.HeapAlloc)
//	runtime.heap.objects    live objects
//	runtime.gc.pause.ns     cumulative stop-the-world pause time
//	runtime.gc.count        completed GC cycles
//	runtime.goroutines      current goroutine count
//
// Sampling calls runtime.ReadMemStats, which stops the world briefly —
// callers invoke it at step fences (once per streaming step) and per
// /metrics scrape, never per sweep. The MemStats scratch is part of the
// sampler, so steady-state sampling allocates nothing; Sample is not
// safe for concurrent use, so each caller owns its sampler.
type RuntimeSampler struct {
	heapBytes   *Gauge
	heapObjects *Gauge
	gcPause     *Gauge
	gcCount     *Gauge
	goroutines  *Gauge
	stats       runtime.MemStats
}

// NewRuntimeSampler resolves the runtime gauges on reg. Returns nil on
// a nil registry (Sample on a nil sampler is a no-op).
func NewRuntimeSampler(reg *Registry) *RuntimeSampler {
	if reg == nil {
		return nil
	}
	return &RuntimeSampler{
		heapBytes:   reg.Gauge("runtime.heap.bytes"),
		heapObjects: reg.Gauge("runtime.heap.objects"),
		gcPause:     reg.Gauge("runtime.gc.pause.ns"),
		gcCount:     reg.Gauge("runtime.gc.count"),
		goroutines:  reg.Gauge("runtime.goroutines"),
	}
}

// Sample reads the runtime state into the gauges. Nil-safe.
func (s *RuntimeSampler) Sample() {
	if s == nil {
		return
	}
	runtime.ReadMemStats(&s.stats)
	s.heapBytes.Set(float64(s.stats.HeapAlloc))
	s.heapObjects.Set(float64(s.stats.HeapObjects))
	s.gcPause.Set(float64(s.stats.PauseTotalNs))
	s.gcCount.Set(float64(s.stats.NumGC))
	s.goroutines.Set(float64(runtime.NumGoroutine()))
}
