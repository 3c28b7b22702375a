package dtd

import (
	"fmt"
	"testing"

	"dismastd/internal/layout"
	"dismastd/internal/obs"
	"dismastd/internal/par"
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
				opts := Options{Rank: 3, MaxIters: 5, Mu: 0.7, Seed: 11, Threads: threads, Obs: obs.New()}
				prev, _, err := Init(prevSnap, opts)
				if err != nil {
					t.Fatal(err)
				}
				s, err := NewSweep(prev, full, opts)
				if err != nil {
					t.Fatal(err)
				}
				// bindSolo's binding, over the COO oracle too.
				kernels, owned := worldBindingOf(s, kind)
				e := s.Bind(par.New(s.opts.Threads), nil, kernels, owned, nil, nil, opts.Obs)
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
// binding builds: every per-mode kernel is a compiled
// *layout.ModeLayout, and building them is recorded as one plan/compile
// span next to plan/complement.
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

// TestLiveBlockSizedByLiveRows holds the memory Bind spends on the live
// blocks to its formula — per mode R·(2·(live old rows + T's R) + live
// new rows) floats, never more than 3·R·(live rows + R) — so only a
// binding in which every row is live (a first snapshot, the sampled
// solver's) holds a model-sized block; and the five row lists are carved
// at final size from the one allocation that sized them.
func TestLiveBlockSizedByLiveRows(t *testing.T) {
	const rank = 4
	prev, snap := bookStep(t, 3)
	s, err := NewSweep(prev, snap, Options{Rank: rank, MaxIters: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	blockFloats := func(e *Sweep) (total int) {
		for m := range e.blocks {
			b := &e.blocks[m]
			got := len(b.tildeT) + len(b.oldT) + len(b.newT)
			if want := rank * (2*(b.nOld+b.nT) + b.nNew); got != want {
				t.Fatalf("mode %d: block holds %d floats, want %d", m, got, want)
			}
			if b.nOld != len(e.liveOld[m]) || b.nNew != len(e.liveNew[m]) || (b.nT != 0) != (len(e.quiet[m].old) > 0) {
				t.Fatalf("mode %d: block %+v does not match the row lists", m, []int{b.nOld, b.nT, b.nNew})
			}
			if bound := 3 * rank * (len(e.live[m]) + rank); got > bound {
				t.Fatalf("mode %d: block holds %d floats for %d live rows, bound %d", m, got, len(e.live[m]), bound)
			}
			q := &e.quiet[m]
			for _, list := range [][]int32{e.live[m], e.liveOld[m], e.liveNew[m], q.old, q.grown} {
				if len(list) != cap(list) {
					t.Fatalf("mode %d: a row list of %d rows has capacity %d", m, len(list), cap(list))
				}
			}
			total += got
		}
		return total
	}
	model := 0
	for _, d := range snap.Dims {
		model += d * rank
	}
	split := bindWorld(s, nil, nil, false)
	defer split.Close()
	if got := blockFloats(split); 2*got > model {
		t.Fatalf("live blocks hold %d floats on a step whose model is %d: the input's quiet rows should keep them under half", got, model)
	}
	every := bindWorld(s, nil, nil, true)
	defer every.Close()
	if got := blockFloats(every); got < model || got > 2*model {
		t.Fatalf("all-live blocks hold %d floats, want between one and two models (%d)", got, model)
	}
}
