package obs

import (
	"strings"
	"testing"
)

// TestTracerEpochStamping is the regression test around an epoch
// transition: spans recorded before and after SetEpoch carry the old
// and new view epoch respectively, both in the ring and in the JSONL
// export that /debug/timeline serves.
func TestTracerEpochStamping(t *testing.T) {
	tr := newTracer(16)
	tr.Start("mode0/mttkrp").End()
	tr.SetEpoch(3)
	tr.Start("elastic/recover").End()
	tr.Start("mode0/mttkrp").End()

	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("%d events, want 3", len(evs))
	}
	if evs[0].Epoch != 0 || evs[1].Epoch != 3 || evs[2].Epoch != 3 {
		t.Fatalf("epochs = %d,%d,%d, want 0,3,3", evs[0].Epoch, evs[1].Epoch, evs[2].Epoch)
	}

	var b strings.Builder
	if err := WriteJSONL(&b, tr.Events()); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if !strings.Contains(lines[0], `"epoch":0`) || !strings.Contains(lines[2], `"epoch":3`) {
		t.Fatalf("JSONL lacks epoch stamps: %q", b.String())
	}
}

func TestAppendEventsSinceIncremental(t *testing.T) {
	tr := newTracer(8)
	tr.Start("a").End()
	tr.Start("b").End()
	buf := make([]SpanEvent, 0, 8)
	buf, seq := tr.AppendEventsSince(0, buf)
	if len(buf) != 2 || seq != 2 {
		t.Fatalf("first append: %d events, seq %d, want 2, 2", len(buf), seq)
	}
	tr.Start("c").End()
	buf, seq = tr.AppendEventsSince(seq, buf[:0])
	if len(buf) != 1 || buf[0].Name != "c" || seq != 3 {
		t.Fatalf("second append: %+v seq %d, want just c at seq 3", buf, seq)
	}
	// Past-the-end seq returns nothing.
	if buf, _ = tr.AppendEventsSince(99, buf[:0]); len(buf) != 0 {
		t.Fatalf("future seq returned %d events", len(buf))
	}
}

func TestAppendEventsSinceAfterWraparound(t *testing.T) {
	tr := newTracer(4)
	for i := 0; i < 10; i++ {
		tr.SetIter(i)
		tr.Start("x").End()
	}
	buf, seq := tr.AppendEventsSince(0, nil)
	if len(buf) != 4 || seq != 10 {
		t.Fatalf("%d retained, seq %d, want 4, 10", len(buf), seq)
	}
	if buf[0].Iter != 6 || buf[3].Iter != 9 {
		t.Fatalf("retained window iters %d..%d, want 6..9", buf[0].Iter, buf[3].Iter)
	}
}

func TestAppendHelpersAllocFree(t *testing.T) {
	tr := newTracer(64)
	names := [...]string{"mode0/mttkrp", "mode0/solve", "loss"}
	for _, n := range names {
		tr.Start(n).End()
	}
	evBuf := make([]SpanEvent, 0, 64)
	phBuf := make([]PhaseStat, 0, 8)
	var seq uint64
	pass := func() {
		for _, n := range names {
			tr.Start(n).End()
		}
		evBuf, seq = tr.AppendEventsSince(seq, evBuf[:0])
		phBuf = tr.AppendPhases(phBuf[:0])
	}
	pass()
	if allocs := testing.AllocsPerRun(50, pass); allocs != 0 {
		t.Errorf("append helpers allocate %v times, want 0", allocs)
	}
	if len(evBuf) != len(names) || len(phBuf) != len(names) {
		t.Fatalf("buffers = %d events, %d phases, want %d each", len(evBuf), len(phBuf), len(names))
	}
}
