package obscluster

import (
	"testing"
	"time"

	"dismastd/internal/cluster"
)

// TestFenceAllocFree pins the plane's steady-state allocation contract:
// once the scratch buffers, intern table, and buffer pool are warm, a
// full fence round — span collection, record encode, pooled gather,
// EWMA evaluation, decision broadcast and decode — performs zero heap
// allocations on every rank. Rank 0 measures with AllocsPerRun (which
// counts process-wide mallocs, so rank 1's fences are inside the
// measurement too); rank 1 runs the matching lockstep iterations.
func TestFenceAllocFree(t *testing.T) {
	const m, runs = 2, 100
	c := cluster.NewLocal(m)
	c.SetRecvTimeout(10 * time.Second)
	members := identityMembers(m)
	loads := []float64{60, 40}

	_, err := c.Run(func(w *cluster.Worker) error {
		p := NewPlane(false, w.Obs(), w.Size())
		step := 0
		var ferr error
		pass := func() {
			span(w.Obs(), "mode0/mttkrp")
			if _, err := p.Fence(w, members, 0, step, loads); err != nil && ferr == nil {
				ferr = err
			}
			step++
		}
		for i := 0; i < 5; i++ { // warm pools, scratch, intern table
			pass()
		}
		if w.Rank() == 0 {
			// AllocsPerRun invokes pass 1 (warm-up) + runs times.
			if allocs := testing.AllocsPerRun(runs, pass); allocs != 0 {
				t.Errorf("steady-state fence allocates %v per round, want 0", allocs)
			}
		} else {
			for i := 0; i < runs+1; i++ {
				pass()
			}
		}
		return ferr
	})
	if err != nil {
		t.Fatal(err)
	}
}
