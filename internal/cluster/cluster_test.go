package cluster

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

func TestCodecRoundtrips(t *testing.T) {
	f := []float64{0, 1.5, -2.25, math.Pi, math.Inf(1)}
	got, err := DecodeFloat64s(EncodeFloat64s(f))
	if err != nil {
		t.Fatal(err)
	}
	for i := range f {
		if got[i] != f[i] {
			t.Fatalf("float64 roundtrip[%d] = %v", i, got[i])
		}
	}
	if _, err := DecodeFloat64s(make([]byte, 7)); err == nil {
		t.Fatal("misaligned float payload accepted")
	}
}

func TestPointToPoint(t *testing.T) {
	c := NewLocal(4)
	_, err := c.Run(func(w *Worker) error {
		// Ring: send to the next rank, receive from the previous.
		next := (w.Rank() + 1) % w.Size()
		prev := (w.Rank() - 1 + w.Size()) % w.Size()
		if err := w.Send(next, "ring", []byte{byte(w.Rank())}); err != nil {
			return err
		}
		got, err := w.Recv(prev, "ring")
		if err != nil {
			return err
		}
		if int(got[0]) != prev {
			return fmt.Errorf("got token %d from %d", got[0], prev)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSelfSend(t *testing.T) {
	c := NewLocal(2)
	_, err := c.Run(func(w *Worker) error {
		if err := w.Send(w.Rank(), "self", []byte("x")); err != nil {
			return err
		}
		b, err := w.Recv(w.Rank(), "self")
		if err != nil {
			return err
		}
		if string(b) != "x" {
			return fmt.Errorf("self loop returned %q", b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTagDemultiplexing(t *testing.T) {
	// Messages with different tags from one sender must be matched by
	// tag, not arrival order.
	c := NewLocal(2)
	_, err := c.Run(func(w *Worker) error {
		if w.Rank() == 0 {
			if err := w.Send(1, "b", []byte("second")); err != nil {
				return err
			}
			return w.Send(1, "a", []byte("first"))
		}
		got, err := w.Recv(0, "a")
		if err != nil {
			return err
		}
		if string(got) != "first" {
			return fmt.Errorf("tag a returned %q", got)
		}
		got, err = w.Recv(0, "b")
		if err != nil {
			return err
		}
		if string(got) != "second" {
			return fmt.Errorf("tag b returned %q", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFIFOPerTag(t *testing.T) {
	c := NewLocal(2)
	const n = 100
	_, err := c.Run(func(w *Worker) error {
		if w.Rank() == 0 {
			for i := 0; i < n; i++ {
				if err := w.Send(1, "seq", []byte{byte(i)}); err != nil {
					return err
				}
			}
			return nil
		}
		for i := 0; i < n; i++ {
			b, err := w.Recv(0, "seq")
			if err != nil {
				return err
			}
			if int(b[0]) != i {
				return fmt.Errorf("message %d arrived at slot %d", b[0], i)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInvalidRanks(t *testing.T) {
	c := NewLocal(2)
	_, err := c.Run(func(w *Worker) error {
		if err := w.Send(5, "x", nil); err == nil {
			return errors.New("send to rank 5 accepted")
		}
		if _, err := w.Recv(-1, "x"); err == nil {
			return errors.New("recv from rank -1 accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrier(t *testing.T) {
	c := NewLocal(5)
	var mu sync.Mutex
	phase := make(map[int]int)
	_, err := c.Run(func(w *Worker) error {
		for p := 0; p < 3; p++ {
			mu.Lock()
			phase[w.Rank()] = p
			// No rank may be more than one phase ahead of any other
			// while inside the barrier region.
			for r, rp := range phase {
				if rp < p-1 || rp > p+1 {
					mu.Unlock()
					return fmt.Errorf("rank %d at phase %d while rank %d at %d", w.Rank(), p, r, rp)
				}
			}
			mu.Unlock()
			if err := w.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBroadcast(t *testing.T) {
	c := NewLocal(4)
	_, err := c.Run(func(w *Worker) error {
		var data []byte
		if w.Rank() == 2 {
			data = []byte("payload")
		}
		got, err := w.BroadcastBytes(2, data)
		if err != nil {
			return err
		}
		if string(got) != "payload" {
			return fmt.Errorf("rank %d got %q", w.Rank(), got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceSum(t *testing.T) {
	const size = 6
	c := NewLocal(size)
	_, err := c.Run(func(w *Worker) error {
		got := []float64{float64(w.Rank()), 1, float64(w.Rank() * w.Rank())}
		if err := w.AllReduceSumInPlace(got); err != nil {
			return err
		}
		// Σr = 15, Σ1 = 6, Σr² = 55 for ranks 0..5.
		want := []float64{15, 6, 55}
		for i := range want {
			if got[i] != want[i] {
				return fmt.Errorf("allreduce[%d] = %v, want %v", i, got[i], want[i])
			}
		}
		s, err := w.ReduceScalarSum(2.5)
		if err != nil {
			return err
		}
		if s != 2.5*size {
			return fmt.Errorf("scalar sum %v", s)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAllReduceDeterministic(t *testing.T) {
	// Rank-ordered summation must give bitwise identical results run
	// to run, even with values that do not commute in floating point.
	run := func() []float64 {
		c := NewLocal(5)
		var out []float64
		var mu sync.Mutex
		_, err := c.Run(func(w *Worker) error {
			got := []float64{1e16 * float64(w.Rank()%2), 1.0 / (float64(w.Rank()) + 3)}
			if err := w.AllReduceSumInPlace(got); err != nil {
				return err
			}
			if w.Rank() == 0 {
				mu.Lock()
				out = got
				mu.Unlock()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("allreduce nondeterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestWorkerErrorPropagates(t *testing.T) {
	c := NewLocal(3)
	boom := errors.New("boom")
	_, err := c.Run(func(w *Worker) error {
		if w.Rank() == 1 {
			return boom
		}
		// Other ranks block on a message that never comes; they must be
		// released by the poisoned mailbox, not the timeout.
		_, err := w.Recv(1, "never")
		if err == nil {
			return errors.New("recv succeeded unexpectedly")
		}
		return nil
	})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("Run error = %v, want boom", err)
	}
}

func TestRecvTimeout(t *testing.T) {
	c := NewLocal(2)
	c.SetRecvTimeout(50 * time.Millisecond)
	start := time.Now()
	_, err := c.Run(func(w *Worker) error {
		if w.Rank() == 0 {
			_, err := w.Recv(1, "silence")
			return err
		}
		return nil
	})
	if err == nil || !errors.Is(err, ErrTimeout) {
		t.Fatalf("error = %v, want timeout", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("timeout took far too long")
	}
}

// TestSendHookFaultInjection keeps its name from the send hook a
// FaultPlan rule now stands in for: a failing link must surface as an
// error from the run.
func TestSendHookFaultInjection(t *testing.T) {
	c := NewLocal(3)
	c.SetRecvTimeout(2 * time.Second)
	c.SetFaultPlan(NewFaultPlan().Add(FaultRule{From: 2, To: AnyRank, FirstSeq: 1, LastSeq: -1, Op: FaultError}))
	_, err := c.Run(func(w *Worker) error {
		for i := 0; i < 5; i++ {
			if err := w.Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		t.Fatal("injected fault did not surface")
	}
}

func TestMetricsAccounting(t *testing.T) {
	c := NewLocal(2)
	stats, err := c.Run(func(w *Worker) error {
		if w.Rank() == 0 {
			return w.Send(1, "m", make([]byte, 100))
		}
		_, err := w.Recv(0, "m")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ranks[0].MsgsSent != 1 || stats.Ranks[1].MsgsRecv != 1 {
		t.Fatalf("message counts: %+v", stats.Ranks)
	}
	if stats.Ranks[0].BytesSent < 100 {
		t.Fatalf("sender bytes %d", stats.Ranks[0].BytesSent)
	}
	if stats.TotalBytes() != stats.Ranks[0].BytesSent+stats.Ranks[1].BytesSent {
		t.Fatal("TotalBytes mismatch")
	}
	if stats.TotalMessages() != 1 {
		t.Fatalf("TotalMessages = %d", stats.TotalMessages())
	}
}

func TestWorkAccounting(t *testing.T) {
	c := NewLocal(3)
	stats, err := c.Run(func(w *Worker) error {
		w.AddWork(float64(w.Rank()) * 100)
		w.AddWork(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TotalWork() != 303 {
		t.Fatalf("TotalWork = %v", stats.TotalWork())
	}
	if stats.MaxWork() != 201 {
		t.Fatalf("MaxWork = %v", stats.MaxWork())
	}
}

func TestWallTimeRecorded(t *testing.T) {
	c := NewLocal(1)
	stats, err := c.Run(func(w *Worker) error {
		time.Sleep(10 * time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Wall < 10*time.Millisecond {
		t.Fatalf("wall %v", stats.Wall)
	}
}

func TestNewLocalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewLocal(0) did not panic")
		}
	}()
	NewLocal(0)
}

func BenchmarkAllReduceSum(b *testing.B) {
	c := NewLocal(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Run(func(w *Worker) error {
			return w.AllReduceSumInPlace(make([]float64, 100)) // R=10 Gram matrix
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestCollectivesStress(t *testing.T) {
	// Hundreds of back-to-back mixed collectives on a large cluster:
	// tags must never cross-match and every reduction must be exact.
	const size = 9
	c := NewLocal(size)
	c.SetRecvTimeout(20 * time.Second)
	_, err := c.Run(func(w *Worker) error {
		for round := 0; round < 150; round++ {
			switch round % 4 {
			case 0:
				got := []float64{float64(w.Rank() + round)}
				if err := w.AllReduceSumInPlace(got); err != nil {
					return err
				}
				want := float64(size*round) + float64(size*(size-1))/2
				if got[0] != want {
					return fmt.Errorf("round %d: sum %v, want %v", round, got[0], want)
				}
			case 1:
				if err := w.Barrier(); err != nil {
					return err
				}
			case 2:
				root := round % size
				var data []byte
				if w.Rank() == root {
					data = []byte{byte(round)}
				}
				got, err := w.BroadcastBytes(root, data)
				if err != nil {
					return err
				}
				if len(got) != 1 || got[0] != byte(round) {
					return fmt.Errorf("round %d: broadcast %v", round, got)
				}
			case 3:
				// Large enough for the ring path.
				vec := make([]float64, DefaultRingThreshold/8)
				for i := range vec {
					vec[i] = float64(w.Rank() * i)
				}
				if err := w.AllReduceSumInPlace(vec); err != nil {
					return err
				}
				for i, v := range vec {
					if want := float64(i * size * (size - 1) / 2); v != want {
						return fmt.Errorf("round %d: ring sum[%d] = %v, want %v", round, i, v, want)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBroadcastTreeBoundsFanout(t *testing.T) {
	// The binomial tree must cap any single rank's messages per
	// broadcast at ⌈log₂ size⌉ instead of size−1.
	const size = 16
	c := NewLocal(size)
	stats, err := c.Run(func(w *Worker) error {
		var data []byte
		if w.Rank() == 0 {
			data = make([]byte, 1000)
		}
		_, err := w.BroadcastBytes(0, data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, rs := range stats.Ranks {
		if rs.MsgsSent > 4 { // log2(16) = 4
			t.Fatalf("rank %d sent %d messages in one broadcast", r, rs.MsgsSent)
		}
	}
}
