package dtd

import (
	"fmt"
	"testing"

	"dismastd/internal/layout"
	"dismastd/internal/obs"
)

// TestIterationAllocFree pins the workspace property on the world-of-one
// binding of the engine: once its buffers are warm, a full Run — the
// Gram establishment, every Eq. (5) sweep over every mode and the
// Eq. (4) loss after each — performs zero heap allocations. The engine
// runs with a live observability bundle so the span and counter
// instrumentation is inside the measured region, and the property must
// hold both sequentially and with a live pool (threads > 1), where
// chunks draw scratch from per-thread workspaces. internal/core pins
// the same engine bound to three ranks over the transport.
func TestIterationAllocFree(t *testing.T) {
	for _, kind := range []layout.Kind{layout.COO, layout.Compiled} {
		for _, threads := range []int{1, 4} {
			t.Run(fmt.Sprintf("layout=%s/threads=%d", kind, threads), func(t *testing.T) {
				full := sparseRandom([]int{12, 10, 8}, 600, 5)
				prevSnap := full.Prefix([]int{9, 8, 6})
				opts := Options{Rank: 3, MaxIters: 5, Mu: 0.7, Seed: 11, Threads: threads, Layout: kind, Obs: obs.New()}
				prev, _, err := Init(prevSnap, opts)
				if err != nil {
					t.Fatal(err)
				}
				s, err := NewSweep(prev, full, opts)
				if err != nil {
					t.Fatal(err)
				}
				e, err := s.bindSolo()
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()

				pass := func() {
					if err := e.Run(nil); err != nil {
						t.Fatal(err)
					}
				}
				pass() // warm-up: workspace slabs grow to their running maximum
				if allocs := testing.AllocsPerRun(10, pass); allocs != 0 {
					t.Fatalf("steady-state DTD run allocates %v times, want 0", allocs)
				}
			})
		}
	}
}

// TestBindSoloDefaultsToCompiledUnderSpan pins what the world-of-one
// binding does when Options never mentions a layout: every per-mode
// kernel is a compiled *layout.ModeLayout, and building them is
// recorded as one plan/compile span next to plan/complement.
func TestBindSoloDefaultsToCompiledUnderSpan(t *testing.T) {
	full := sparseRandom([]int{12, 10, 8}, 600, 5)
	opts := Options{Rank: 3, MaxIters: 2, Seed: 11, Obs: obs.New()}
	prev, _, err := Init(full.Prefix([]int{9, 8, 6}), Options{Rank: 3, MaxIters: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSweep(prev, full, opts)
	if err != nil {
		t.Fatal(err)
	}
	e, err := s.bindSolo()
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for m, k := range e.kernels {
		if _, ok := k.(*layout.ModeLayout); !ok {
			t.Errorf("mode %d kernel is %T, want *layout.ModeLayout", m, k)
		}
	}
	spans := map[string]int64{}
	for _, ps := range opts.Obs.Trace.Phases() {
		spans[ps.Name] = ps.Count
	}
	if spans["plan/complement"] != 1 || spans["plan/compile"] != 1 {
		t.Errorf("plan spans %v, want one plan/complement and one plan/compile", spans)
	}
}
