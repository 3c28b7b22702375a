package obs

import (
	"strings"
	"testing"
	"time"
)

func TestTracerRecordsSpansWithContext(t *testing.T) {
	tr := NewTracer(16)
	tr.SetRank(2)
	tr.SetSnapshot(1)
	tr.SetIter(4)
	sp := tr.Start("mode0/mttkrp")
	sp.End()
	evs := tr.Events()
	if len(evs) != 1 {
		t.Fatalf("%d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Name != "mode0/mttkrp" || ev.Rank != 2 || ev.Snapshot != 1 || ev.Iter != 4 {
		t.Fatalf("event = %+v", ev)
	}
	if ev.Dur < 0 || ev.Start < 0 {
		t.Fatalf("negative timing: %+v", ev)
	}
	ps := tr.Phases()
	if len(ps) != 1 || ps[0].Count != 1 || ps[0].Total != ev.Dur {
		t.Fatalf("phases = %+v", ps)
	}
}

// TestTracerRingWraparound fills the ring past capacity and checks the
// retained window is the most recent spans, oldest-first, while the
// aggregates still count everything.
func TestTracerRingWraparound(t *testing.T) {
	const capacity = 8
	tr := NewTracer(capacity)
	names := []string{"a", "b", "c", "d"}
	const total = 3*capacity + 5
	for i := 0; i < total; i++ {
		tr.SetIter(i)
		tr.Start(names[i%len(names)]).End()
	}
	if tr.Count() != total {
		t.Fatalf("count = %d, want %d", tr.Count(), total)
	}
	evs := tr.Events()
	if len(evs) != capacity {
		t.Fatalf("%d retained events, want %d", len(evs), capacity)
	}
	for i, ev := range evs {
		wantIter := total - capacity + i
		if ev.Iter != wantIter {
			t.Fatalf("event %d has iter %d, want %d (not oldest-first?)", i, ev.Iter, wantIter)
		}
	}
	var aggCount int64
	for _, ps := range tr.Phases() {
		aggCount += ps.Count
	}
	if aggCount != total {
		t.Fatalf("aggregate count = %d, want %d despite wraparound", aggCount, total)
	}

	// EventsSince: everything still retained from a recent mark, all
	// retained events from an overwritten mark, nothing from the end.
	if got := tr.EventsSince(total - 3); len(got) != 3 {
		t.Fatalf("EventsSince(recent) = %d events, want 3", len(got))
	}
	if got := tr.EventsSince(0); len(got) != capacity {
		t.Fatalf("EventsSince(0) = %d events, want %d", len(got), capacity)
	}
	if got := tr.EventsSince(total); len(got) != 0 {
		t.Fatalf("EventsSince(now) = %d events, want 0", len(got))
	}
}

func TestWriteJSONL(t *testing.T) {
	tr := NewTracer(4)
	tr.Start("loss").End()
	tr.Start("mode1/solve").End()
	var b strings.Builder
	if err := WriteJSONL(&b, tr.Events()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d JSONL lines, want 2: %q", len(lines), b.String())
	}
	if !strings.Contains(lines[0], `"name":"loss"`) || !strings.Contains(lines[1], `"name":"mode1/solve"`) {
		t.Fatalf("unexpected JSONL: %q", b.String())
	}
}

func TestPhaseOfAndAggregate(t *testing.T) {
	if PhaseOf("mode2/mttkrp") != "mttkrp" || PhaseOf("loss") != "loss" || PhaseOf("plan/partition") != "partition" {
		t.Fatal("PhaseOf misparsed a span name")
	}
	agg := AggregatePhases([]PhaseStat{
		{Name: "mode0/mttkrp", Count: 2, Total: 10 * time.Millisecond},
		{Name: "mode1/mttkrp", Count: 3, Total: 20 * time.Millisecond},
		{Name: "loss", Count: 1, Total: 5 * time.Millisecond},
	})
	if len(agg) != 2 {
		t.Fatalf("aggregated to %d phases, want 2: %+v", len(agg), agg)
	}
	if agg[0].Name != "loss" || agg[1].Name != "mttkrp" {
		t.Fatalf("order = %+v", agg)
	}
	if agg[1].Count != 5 || agg[1].Total != 30*time.Millisecond {
		t.Fatalf("mttkrp merge = %+v", agg[1])
	}
}

func TestSubPhases(t *testing.T) {
	base := []PhaseStat{{Name: "loss", Count: 2, Total: 10}}
	cur := []PhaseStat{{Name: "loss", Count: 5, Total: 35}, {Name: "mode0/mttkrp", Count: 1, Total: 7}, {Name: "idle", Count: 2, Total: 10}}
	// Pretend "idle" did not advance.
	d := SubPhases(cur, append(base, PhaseStat{Name: "idle", Count: 2, Total: 10}))
	if len(d) != 2 {
		t.Fatalf("delta = %+v, want 2 advanced phases", d)
	}
	if d[0].Name != "loss" || d[0].Count != 3 || d[0].Total != 25 {
		t.Fatalf("loss delta = %+v", d[0])
	}
}

// TestObsBaselineDelta pins the Run-scoped snapshot mechanism the TCP
// transport uses: counters, phases and spans recorded before the
// baseline are invisible to SnapshotSince.
func TestObsBaselineDelta(t *testing.T) {
	o := New()
	o.Counter("transport.reconnects").Inc()
	o.Span("loss").End()
	b := o.Baseline()
	o.Counter("transport.reconnects").Add(2)
	o.Span("loss").End()
	o.Span("mode0/mttkrp").End()
	s := o.SnapshotSince(b)
	if s.Metrics.Counters["transport.reconnects"] != 2 {
		t.Fatalf("counter delta = %d, want 2", s.Metrics.Counters["transport.reconnects"])
	}
	if len(s.Spans) != 2 {
		t.Fatalf("%d spans since baseline, want 2", len(s.Spans))
	}
	var loss PhaseStat
	for _, ps := range s.Phases {
		if ps.Name == "loss" {
			loss = ps
		}
	}
	if loss.Count != 1 {
		t.Fatalf("loss phase delta = %+v, want count 1", loss)
	}
}
