package obs

import (
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := newRegistry()
	c := r.Counter("mttkrp.rows")
	c.Add(5)
	c.Inc()
	if got := c.Value(); got != 6 {
		t.Fatalf("counter = %d, want 6", got)
	}
	if r.Counter("mttkrp.rows") != c {
		t.Fatal("second lookup returned a different counter")
	}
	g := r.Gauge("partition.mode0.cv")
	g.Set(0.25)
	if got := g.Value(); got != 0.25 {
		t.Fatalf("gauge = %v, want 0.25", got)
	}

	s := r.Snapshot()
	if s.Counters["mttkrp.rows"] != 6 || s.Gauges["partition.mode0.cv"] != 0.25 {
		t.Fatalf("snapshot = %+v", s)
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var r *Registry
	var o *Obs
	// None of these may panic; values must read as zero.
	r.Counter("x").Add(3)
	r.Gauge("y").Set(1)
	r.Histogram("z", []float64{1}).Observe(2)
	o.Counter("x").Inc()
	o.Gauge("y").Set(1)
	o.Span("s").End()
	o.SetIter(3)
	o.SetSnapshot(1)
	o.Logger().Info("dropped")
	if r.Counter("x").Value() != 0 || r.Gauge("y").Value() != 0 {
		t.Fatal("nil handles returned non-zero values")
	}
	if s := r.Snapshot(); s.Counters != nil || s.Gauges != nil {
		t.Fatalf("nil registry snapshot = %+v", s)
	}
	if s := o.SnapshotSince(o.Baseline()); s.Phases != nil || s.Spans != nil {
		t.Fatalf("nil obs snapshot = %+v", s)
	}
}

// TestHistogramBucketEdges pins the boundary convention: bucket i
// counts observations <= uppers[i]; anything above the last bound lands
// in the overflow bucket.
func TestHistogramBucketEdges(t *testing.T) {
	r := newRegistry()
	h := r.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0, 1, 1.0001, 10, 10.5, 100, 101, 1e9} {
		h.Observe(v)
	}
	s := r.Snapshot().Histograms["lat"]
	want := []int64{2, 2, 2, 2} // (<=1)x2, (<=10)x2, (<=100)x2, overflow x2
	if len(s.Counts) != len(want) {
		t.Fatalf("bucket count %d, want %d", len(s.Counts), len(want))
	}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count() != 8 {
		t.Fatalf("total = %d, want 8", s.Count())
	}
	wantSum := 0.0 + 1 + 1.0001 + 10 + 10.5 + 100 + 101 + 1e9
	if s.Sum != wantSum {
		t.Fatalf("sum = %v, want %v", s.Sum, wantSum)
	}
	// Unsorted bounds are sorted at creation.
	h2 := r.Histogram("lat2", []float64{100, 1, 10})
	h2.Observe(5)
	if s2 := r.Snapshot().Histograms["lat2"]; s2.Counts[1] != 1 {
		t.Fatalf("unsorted-bounds histogram counts = %v, want observation in bucket 1", s2.Counts)
	}
}

// TestRegistryConcurrency hammers get-or-create and updates from many
// goroutines; run under -race (make race covers internal/obs) this
// proves the registry and instruments are data-race-free and that no
// increments are lost.
func TestRegistryConcurrency(t *testing.T) {
	r := newRegistry()
	const goroutines, perG = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Counter("shared").Inc()
				r.Gauge("gauge").Set(float64(i))
				r.Histogram("hist", []float64{100, 500}).Observe(float64(i))
				if i%100 == 0 {
					r.Snapshot() // concurrent reads must be safe too
				}
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != goroutines*perG {
		t.Fatalf("lost increments: %d, want %d", got, goroutines*perG)
	}
	if got := r.Snapshot().Histograms["hist"].Count(); got != goroutines*perG {
		t.Fatalf("lost observations: %d, want %d", got, goroutines*perG)
	}
}

func TestSnapshotSub(t *testing.T) {
	r := newRegistry()
	c := r.Counter("n")
	h := r.Histogram("h", []float64{10})
	c.Add(3)
	h.Observe(5)
	base := r.Snapshot()
	c.Add(4)
	h.Observe(50)
	d := r.Snapshot().Sub(base)
	if d.Counters["n"] != 4 {
		t.Fatalf("counter delta = %d, want 4", d.Counters["n"])
	}
	hd := d.Histograms["h"]
	if hd.Counts[0] != 0 || hd.Counts[1] != 1 || hd.Sum != 50 {
		t.Fatalf("histogram delta = %+v", hd)
	}
}
