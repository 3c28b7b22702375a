package cluster

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestAgreeViewKillAndJoin walks the full elastic transition on the
// in-process transport: world of 4, view {0,1,2}, rank 1 dies, spare 3
// is admitted. Survivors detect the death, revoke the epoch, agree on
// the next view, adopt the joiner, and run a collective in the new
// epoch.
func TestAgreeViewKillAndJoin(t *testing.T) {
	c := NewLocal(4)
	cur := newView(0, []int{0, 1, 2})
	vc := ViewChange{Dead: []int{1}, Join: []int{3}}
	var mu sync.Mutex
	sums := map[int]float64{}
	_, err := c.Run(func(w *Worker) error {
		if w.Rank() == 1 {
			return nil // dies before contributing anything
		}
		var next View
		if w.Rank() == 3 {
			var cookie int64
			var err error
			next, cookie, err = AwaitAdopt(w)
			if err != nil {
				return err
			}
			if cookie != 7 {
				t.Errorf("cookie = %d", cookie)
			}
		} else {
			// Survivors: block on the dead rank, detect, recover.
			_, err := w.Recv(1, "work")
			pd, ok := AsPeerDown(err)
			if !ok || pd.Rank != 1 {
				t.Errorf("rank %d detection: %v", w.Rank(), err)
				return err
			}
			w.Revoke(pd.Rank)
			w.ClearFault()
			var step int
			next, step, err = AgreeView(w, cur, vc, 7)
			if err != nil {
				return err
			}
			if step != 7 {
				t.Errorf("rank %d agreed step %d", w.Rank(), step)
			}
		}
		want := newView(1, []int{0, 2, 3})
		if !next.Equal(want) {
			t.Errorf("rank %d agreed on %v, want %v", w.Rank(), next, want)
		}
		vw, err := w.ViewWorker(next)
		if err != nil {
			return err
		}
		got := []float64{float64(w.Rank())}
		if err := vw.AllReduceSumInPlace(got); err != nil {
			return err
		}
		mu.Lock()
		sums[w.Rank()] = got[0]
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, r := range []int{0, 2, 3} {
		if sums[r] != 5 { // 0 + 2 + 3
			t.Fatalf("rank %d post-transition allreduce = %v", r, sums[r])
		}
	}
}

// TestAgreeViewDrain checks a graceful leave: the drainer participates
// in the transition, learns the next view, and exits; the survivors
// carry on in the shrunken view.
func TestAgreeViewDrain(t *testing.T) {
	c := NewLocal(3)
	cur := newView(0, []int{0, 1, 2})
	vc := ViewChange{Leave: []int{2}}
	_, err := c.Run(func(w *Worker) error {
		next, _, err := AgreeView(w, cur, vc, 0)
		if err != nil {
			return err
		}
		want := newView(1, []int{0, 1})
		if !next.Equal(want) {
			t.Errorf("rank %d agreed on %v", w.Rank(), next)
		}
		if !next.Contains(w.Rank()) {
			return nil // drained; exits cleanly
		}
		vw, err := w.ViewWorker(next)
		if err != nil {
			return err
		}
		got := []float64{1}
		if err := vw.AllReduceSumInPlace(got); err != nil {
			return err
		}
		if got[0] != 2 {
			t.Errorf("post-drain allreduce = %v", got[0])
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestAgreeViewProposalMismatch checks the documented safety property:
// survivors with different failure evidence fail the transition
// loudly instead of splitting the view.
func TestAgreeViewProposalMismatch(t *testing.T) {
	c := NewLocal(3)
	c.SetRecvTimeout(2 * time.Second)
	cur := newView(0, []int{0, 1, 2})
	var mu sync.Mutex
	var coordErr error
	_, err := c.Run(func(w *Worker) error {
		vc := ViewChange{Leave: []int{2}}
		if w.Rank() == 1 {
			vc = ViewChange{} // disagrees with the others
		}
		_, _, err := AgreeView(w, cur, vc, 0)
		if w.Rank() == 0 {
			mu.Lock()
			coordErr = err
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if coordErr == nil || !strings.Contains(coordErr.Error(), "different view change") {
		t.Fatalf("coordinator error = %v", coordErr)
	}
}

// TestRoundDecidesOnEveryPayload: the coordinator decides only after
// absorbing every peer's payload, each exactly once, and every
// participant — the coordinator too — gets the same decision back.
func TestRoundDecidesOnEveryPayload(t *testing.T) {
	const m, coord = 4, 2
	c := NewLocal(m)
	c.SetRecvTimeout(5 * time.Second)
	var mu sync.Mutex
	got := map[int]byte{}
	_, err := c.Run(func(w *Worker) error {
		var peers []int
		for r := 0; r < m; r++ {
			if r != coord {
				peers = append(peers, r)
			}
		}
		var payload []byte
		if w.Rank() != coord {
			payload = w.GetBuf(1)
			payload[0] = byte(1 << w.Rank())
		}
		var sum byte
		absorb := func(from int, p []byte) error {
			if p[0] != byte(1<<from) || sum&p[0] != 0 {
				t.Errorf("payload %08b from rank %d after %08b", p[0], from, sum)
			}
			sum |= p[0]
			return nil
		}
		out, err := Round(w, coord, peers, "round", "round/dec", payload, absorb, func() []byte { return []byte{sum} })
		if err != nil {
			return err
		}
		mu.Lock()
		got[w.Rank()] = out[0]
		mu.Unlock()
		w.PutBuf(out)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < m; r++ {
		if got[r] != 0b1011 {
			t.Errorf("rank %d got decision %08b, want %08b", r, got[r], 0b1011)
		}
	}
}
