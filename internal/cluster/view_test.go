package cluster

import (
	"errors"
	"testing"
	"time"
)

func TestViewRankMapping(t *testing.T) {
	v := newView(3, []int{4, 0, 2, 4}) // unsorted, duplicated
	if got := v.Members; len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 4 {
		t.Fatalf("members = %v", got)
	}
	if v.RankOf(2) != 1 || v.RankOf(4) != 2 || v.RankOf(1) != -1 {
		t.Fatalf("RankOf wrong: %d %d %d", v.RankOf(2), v.RankOf(4), v.RankOf(1))
	}
	if !v.Contains(4) || v.Contains(3) {
		t.Fatalf("Contains wrong")
	}
	enc := encodeView(nil, v)
	dec, rest, err := decodeView(enc)
	if err != nil || len(rest) != 0 || !dec.Equal(v) {
		t.Fatalf("codec roundtrip: %v %v %v", dec, rest, err)
	}
}

// TestDecodeViewRefusesUnsortedMembers: a view off the wire must have
// strictly increasing members. RankOf binary-searches the list, so
// [2 0 1] would hide a present member and [0 0 3] would map two view
// ranks to world rank 0; both are errors, in a joiner's adopt too.
func TestDecodeViewRefusesUnsortedMembers(t *testing.T) {
	for _, members := range [][]int{{2, 0, 1}, {0, 0, 3}, {1, 1}} {
		enc := encodeView(nil, View{Epoch: 4, Members: members})
		if v, _, err := decodeView(enc); err == nil {
			t.Errorf("members %v decoded to %v, want an error", members, v)
		}
		if v, _, err := decodeAdopt(encodeAdopt(View{Epoch: 4, Members: members}, 1)); err == nil {
			t.Errorf("adopt of members %v decoded to %v, want an error", members, v)
		}
	}
}

func TestViewChangeApply(t *testing.T) {
	cur := InitialView(4) // {0,1,2,3} epoch 0
	vc := ViewChange{Dead: []int{1}, Join: []int{5}}
	next := vc.apply(cur)
	if next.Epoch != 1 {
		t.Fatalf("epoch = %d", next.Epoch)
	}
	want := []int{0, 2, 3, 5}
	for i, m := range want {
		if next.Members[i] != m {
			t.Fatalf("members = %v, want %v", next.Members, want)
		}
	}
	if c := coordinator(cur, next); c != 0 {
		t.Fatalf("coordinator = %d", c)
	}
	// Coordinator must be a continuing member even when 0 dies.
	next2 := ViewChange{Dead: []int{0}}.apply(cur)
	if c := coordinator(cur, next2); c != 1 {
		t.Fatalf("coordinator after 0 died = %d", c)
	}
}

// TestViewWorkerRoutesThroughWorldRanks checks a view worker's sends
// and receives reach the right world slots under renumbered ranks.
func TestViewWorkerRoutesThroughWorldRanks(t *testing.T) {
	c := NewLocal(4)
	v := newView(1, []int{0, 2, 3}) // world 1 excluded; view ranks 0,1,2
	_, err := c.Run(func(w *Worker) error {
		if w.Rank() == 1 {
			return nil // not a member; idles
		}
		vw, err := w.ViewWorker(v)
		if err != nil {
			return err
		}
		if vw.Size() != 3 || vw.WorldRank() != w.Rank() {
			t.Errorf("view worker shape: size %d world %d", vw.Size(), vw.WorldRank())
		}
		// Ring: each view rank sends its world rank to (rank+1)%3.
		me := vw.Rank()
		next := (me + 1) % 3
		prev := (me + 2) % 3
		if err := vw.Send(next, "ring", []byte{byte(vw.WorldRank())}); err != nil {
			return err
		}
		got, err := vw.Recv(prev, "ring")
		if err != nil {
			return err
		}
		if want := byte(v.Members[prev]); got[0] != want {
			t.Errorf("view rank %d got %d from prev, want %d", me, got[0], want)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestViewWorkerCollectivesFenced checks epoch-prefixed tags: the same
// lockstep collective sequence in two different epochs cannot
// cross-match even when a straggler from the old epoch has traffic
// queued.
func TestViewWorkerCollectivesFenced(t *testing.T) {
	c := NewLocal(2)
	v1 := newView(1, []int{0, 1})
	v2 := newView(2, []int{0, 1})
	_, err := c.Run(func(w *Worker) error {
		w1, err := w.ViewWorker(v1)
		if err != nil {
			return err
		}
		w2, err := w.ViewWorker(v2)
		if err != nil {
			return err
		}
		if w1.StreamTag("reduce") == w2.StreamTag("reduce") {
			t.Errorf("stream tags not fenced: %q", w1.StreamTag("reduce"))
		}
		// Rank 1 sends an epoch-1 payload that rank 0 never reads in
		// epoch 1; rank 0's epoch-2 receive must not consume it.
		if w.Rank() == 1 {
			if err := w1.Send(0, w1.StreamTag("x"), []byte{1}); err != nil {
				return err
			}
			if err := w2.Send(0, w2.StreamTag("x"), []byte{2}); err != nil {
				return err
			}
			return nil
		}
		got, err := w2.Recv(1, w2.StreamTag("x"))
		if err != nil {
			return err
		}
		if got[0] != 2 {
			t.Errorf("epoch 2 receive got epoch-%d payload", got[0])
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestViewWorkerStampsObsEpoch: deriving a view worker stamps the
// shared tracer with the view epoch, so spans ending after the
// derivation export that epoch — the identity merged cluster timelines
// use to separate pre- from post-transition work.
func TestViewWorkerStampsObsEpoch(t *testing.T) {
	c := NewLocal(2)
	_, err := c.Run(func(w *Worker) error {
		o := w.Obs()
		o.Span("before").End()
		if _, err := w.ViewWorker(newView(7, []int{0, 1})); err != nil {
			return err
		}
		o.Span("after").End()
		want := map[string]int64{"before": 0, "after": 7}
		for _, ev := range o.Trace.Events() {
			wantEpoch, ok := want[ev.Name]
			if !ok {
				continue
			}
			if ev.Epoch != wantEpoch {
				t.Errorf("rank %d span %q exported epoch %d, want %d", w.Rank(), ev.Name, ev.Epoch, wantEpoch)
			}
			delete(want, ev.Name)
		}
		if len(want) != 0 {
			t.Errorf("rank %d missing spans %v", w.Rank(), want)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestViewWorkerEpochMetricsNoBleed is the per-epoch transport metrics
// regression test: deriving a view worker snapshots a fresh baseline,
// so an epoch's MetricsSnapshot counts that epoch's traffic only — the
// same baseline+delta scoping repeated TCPNode.Run invocations get —
// while the root worker still sees the run-wide totals.
func TestViewWorkerEpochMetricsNoBleed(t *testing.T) {
	c := NewLocal(2)
	payload := make([]byte, 100)
	_, err := c.Run(func(w *Worker) error {
		w1, err := w.ViewWorker(newView(1, []int{0, 1}))
		if err != nil {
			return err
		}
		// Epoch 1: one message each way.
		peer := 1 - w1.Rank()
		if err := w1.Send(peer, "a", payload); err != nil {
			return err
		}
		if _, err := w1.Recv(peer, "a"); err != nil {
			return err
		}
		e1 := w1.MetricsSnapshot()
		if e1.MsgsSent != 1 || e1.MsgsRecv != 1 {
			t.Errorf("epoch 1 snapshot: %+v", e1)
		}

		w2, err := w.ViewWorker(newView(2, []int{0, 1}))
		if err != nil {
			return err
		}
		if s := w2.MetricsSnapshot(); s.MsgsSent != 0 || s.BytesSent != 0 || s.MsgsRecv != 0 || s.BytesRecv != 0 {
			t.Errorf("epoch 2 starts with bled counters: %+v", s)
		}
		if err := w2.Send(1-w2.Rank(), "b", payload[:10]); err != nil {
			return err
		}
		if _, err := w2.Recv(1-w2.Rank(), "b"); err != nil {
			return err
		}
		e2 := w2.MetricsSnapshot()
		if e2.MsgsSent != 1 || e2.BytesSent != int64(10+len("b")+8) {
			t.Errorf("epoch 2 snapshot: %+v", e2)
		}
		// Root worker still accumulates across epochs.
		if s := w.MetricsSnapshot(); s.MsgsSent != 2 {
			t.Errorf("root snapshot: %+v", s)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestElasticExitMarksRankDown checks Local's elastic semantics: a
// returning worker reads as a rank-attributed ErrPeerDown at the
// survivors — after its queued messages drain.
func TestElasticExitMarksRankDown(t *testing.T) {
	c := NewLocal(3)
	c.SetElastic(true)
	_, err := c.Run(func(w *Worker) error {
		if w.Rank() == 2 {
			// Send one farewell, then die: drain-then-fail must hand
			// the farewell over before the death surfaces.
			return w.Send(0, "bye", []byte{42})
		}
		if w.Rank() == 0 {
			got, err := w.Recv(2, "bye")
			if err != nil || got[0] != 42 {
				t.Errorf("farewell: %v %v", got, err)
			}
			_, err = w.Recv(2, "never")
			pd, ok := AsPeerDown(err)
			if !ok || pd.Rank != 2 {
				t.Errorf("recv from dead rank: %v", err)
			}
			// Attributed error also from recv-any once all are down.
			_, _, err = w.RecvAny("never2", []int{2})
			if pd, ok := AsPeerDown(err); !ok || pd.Rank != 2 {
				t.Errorf("recv-any from dead rank: %v", err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestRevokeUnblocksThirdParty reproduces the transitive deadlock a
// revoke exists to break: rank 2 waits on live rank 0, which waits on
// dead rank 1. Rank 0's revoke must surface ErrPeerDown(1) at rank 2.
func TestRevokeUnblocksThirdParty(t *testing.T) {
	c := NewLocal(3)
	c.SetElastic(true)
	c.SetRecvTimeout(500 * time.Millisecond)
	_, err := c.Run(func(w *Worker) error {
		switch w.Rank() {
		case 1:
			return nil // dies immediately
		case 0:
			_, err := w.Recv(1, "contrib")
			pd, ok := AsPeerDown(err)
			if !ok {
				t.Errorf("rank 0 expected peer-down, got %v", err)
				return nil
			}
			w.Revoke(pd.Rank)
			w.ClearFault()
			return nil
		default: // rank 2 waits on rank 0, who will never send
			_, err := w.Recv(0, "bcast")
			pd, ok := AsPeerDown(err)
			if !ok || pd.Rank != 1 {
				t.Errorf("rank 2 expected revoked epoch's ErrPeerDown(1), got %v", err)
			}
			// Duplicate revoke for the same dead rank must not
			// re-poison after the clear: a receive from live-or-exited
			// rank 0 may time out or observe rank 0's own exit, but it
			// must not resurface rank 1's revocation.
			w.ClearFault()
			w.Revoke(1)
			_, err = w.Recv(0, "post")
			if pd, ok := AsPeerDown(err); ok && pd.Rank == 1 {
				t.Errorf("post-clear recv re-poisoned: %v", err)
			} else if !ok && !errors.Is(err, ErrTimeout) {
				t.Errorf("post-clear recv: %v", err)
			}
			return nil
		}
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
}
