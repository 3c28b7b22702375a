package cluster

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFaultPlanSchedule(t *testing.T) {
	boom := errors.New("boom")
	p := NewFaultPlan(
		FaultRule{From: 0, To: 1, FirstSeq: 1, Op: FaultError, Err: boom},
		FaultRule{From: 2, To: AnyRank, TagPrefix: "gram", FirstSeq: 0, LastSeq: -1, Op: FaultDrop},
	)

	// Seq 0 on (0,1) is clean; seq 1 fires the error rule exactly once.
	if inj := p.decide(0, 1, "x"); inj != nil {
		t.Fatalf("seq 0 injected %v", inj.op)
	}
	inj := p.decide(0, 1, "x")
	if inj == nil || inj.op != FaultError || !errors.Is(inj.err, boom) {
		t.Fatalf("seq 1 = %+v, want error rule", inj)
	}
	if inj := p.decide(0, 1, "x"); inj != nil {
		t.Fatalf("seq 2 injected %v", inj.op)
	}

	// Tag-restricted unbounded drop: fires on every matching tag, never
	// on others, from any destination.
	for i := 0; i < 3; i++ {
		if inj := p.decide(2, i, "gram#7"); inj == nil || inj.op != FaultDrop {
			t.Fatalf("gram send %d not dropped", i)
		}
		if inj := p.decide(2, i, "rows#7"); inj != nil {
			t.Fatalf("rows send %d injected %v", i, inj.op)
		}
	}
	if got := p.FiredOp(FaultDrop); got != 3 {
		t.Fatalf("FiredOp(drop) = %d", got)
	}
	if got := p.FiredOp(FaultError) + p.FiredOp(FaultDrop); got != 4 {
		t.Fatalf("%d faults fired, want 4", got)
	}
}

func TestFaultPlanDefaultError(t *testing.T) {
	p := NewFaultPlan(FaultRule{From: AnyRank, To: AnyRank, Op: FaultError})
	inj := p.decide(3, 4, "tag")
	if inj == nil || inj.err == nil {
		t.Fatal("no default error materialized")
	}
	for _, want := range []string{"injected", "from 3", "to 4", `"tag"`} {
		if !strings.Contains(inj.err.Error(), want) {
			t.Fatalf("default error %q missing %q", inj.err, want)
		}
	}
}

func TestLocalFaultPlanError(t *testing.T) {
	// An injected send error must surface as a rank-attributed run error
	// and release every other rank through the failed rank's down mark.
	boom := errors.New("injected link failure")
	c := NewLocal(3)
	c.SetRecvTimeout(10 * time.Second)
	c.SetFaultPlan(NewFaultPlan(FaultRule{From: 1, To: 0, FirstSeq: 0, Op: FaultError, Err: boom}))
	start := time.Now()
	_, err := c.Run(func(w *Worker) error {
		return w.Barrier()
	})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("error = %v, want injected failure", err)
	}
	if !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("error %q not attributed to rank 1", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("fault did not fail fast")
	}
}

func TestLocalFaultPlanDrop(t *testing.T) {
	// A dropped message looks like success to the sender and silence to
	// the receiver: the receive must end in a timeout, not a hang. The
	// sender stays alive until then, or its exit would read as down.
	c := NewLocal(2)
	c.SetRecvTimeout(100 * time.Millisecond)
	plan := NewFaultPlan(FaultRule{From: 0, To: 1, TagPrefix: "lost", Op: FaultDrop})
	c.SetFaultPlan(plan)
	done := make(chan struct{})
	_, err := c.Run(func(w *Worker) error {
		if w.Rank() == 0 {
			err := w.Send(1, "lost", []byte("gone"))
			<-done
			return err
		}
		defer close(done)
		_, err := w.Recv(0, "lost")
		return err
	})
	if err == nil || !errors.Is(err, ErrTimeout) {
		t.Fatalf("error = %v, want timeout from dropped message", err)
	}
	if plan.FiredOp(FaultDrop) != 1 {
		t.Fatalf("drops fired = %d", plan.FiredOp(FaultDrop))
	}
}

func TestLocalFaultPlanDelay(t *testing.T) {
	const lag = 50 * time.Millisecond
	c := NewLocal(2)
	c.SetFaultPlan(NewFaultPlan(FaultRule{From: 0, To: 1, Op: FaultDelay, Delay: lag}))
	var elapsed time.Duration
	var mu sync.Mutex
	start := time.Now()
	_, err := c.Run(func(w *Worker) error {
		if w.Rank() == 0 {
			return w.Send(1, "slow", nil)
		}
		_, err := w.Recv(0, "slow")
		mu.Lock()
		elapsed = time.Since(start)
		mu.Unlock()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if elapsed < lag {
		t.Fatalf("delayed message arrived after %v, want >= %v", elapsed, lag)
	}
}

func TestLocalFaultPlanCutDelivers(t *testing.T) {
	// In-process there is no connection to cut: like a recovered TCP
	// cut, the message still arrives.
	c := NewLocal(2)
	plan := NewFaultPlan(FaultRule{From: AnyRank, To: AnyRank, FirstSeq: 0, LastSeq: -1, Op: FaultCut})
	c.SetFaultPlan(plan)
	_, err := c.Run(func(w *Worker) error {
		if w.Rank() == 0 {
			return w.Send(1, "cut", []byte("x"))
		}
		b, err := w.Recv(0, "cut")
		if err != nil {
			return err
		}
		if string(b) != "x" {
			return fmt.Errorf("payload %q", b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.FiredOp(FaultCut) == 0 {
		t.Fatal("cut rule never fired")
	}
}
