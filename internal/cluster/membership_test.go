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
	c.SetElastic(true)
	cur := NewView(0, []int{0, 1, 2})
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
			next, err = AgreeView(w, cur, vc)
			if err != nil {
				return err
			}
			if w.Rank() == Coordinator(cur, next) {
				if err := SendAdopt(w, 3, next, 7); err != nil {
					return err
				}
			}
		}
		want := NewView(1, []int{0, 2, 3})
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
	c.SetElastic(true)
	cur := NewView(0, []int{0, 1, 2})
	vc := ViewChange{Leave: []int{2}}
	_, err := c.Run(func(w *Worker) error {
		next, err := AgreeView(w, cur, vc)
		if err != nil {
			return err
		}
		want := NewView(1, []int{0, 1})
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
	c.SetElastic(true)
	c.SetRecvTimeout(2 * time.Second)
	cur := NewView(0, []int{0, 1, 2})
	var mu sync.Mutex
	var coordErr error
	_, err := c.Run(func(w *Worker) error {
		vc := ViewChange{Leave: []int{2}}
		if w.Rank() == 1 {
			vc = ViewChange{} // disagrees with the others
		}
		_, err := AgreeView(w, cur, vc)
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

// TestMembershipRequests checks the join/drain request plumbing: a
// request broadcast by one rank is drained exactly once by the
// coordinator's poll, deduplicated, and invisible to TryRecvAny once
// consumed.
func TestMembershipRequests(t *testing.T) {
	c := NewLocal(3)
	_, err := c.Run(func(w *Worker) error {
		switch w.Rank() {
		case 1:
			RequestJoin(w)
			RequestJoin(w) // duplicate request must dedupe
			return w.Send(0, "done", nil)
		case 2:
			RequestDrain(w)
			return w.Send(0, "done", nil)
		default:
			// In-process sends are delivered synchronously in program
			// order, so after both "done" markers the requests are
			// queued for sure.
			if _, err := w.Recv(1, "done"); err != nil {
				return err
			}
			if _, err := w.Recv(2, "done"); err != nil {
				return err
			}
			joins, drains := PollMembershipRequests(w)
			if len(joins) != 1 || joins[0] != 1 {
				t.Errorf("joins = %v", joins)
			}
			if len(drains) != 1 || drains[0] != 2 {
				t.Errorf("drains = %v", drains)
			}
			// A second poll finds nothing: requests are consumed.
			if j, d := PollMembershipRequests(w); len(j)+len(d) != 0 {
				t.Errorf("second poll: %v %v", j, d)
			}
			return nil
		}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}
