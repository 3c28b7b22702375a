package obscluster

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"dismastd/internal/cluster"
	"dismastd/internal/obs"
)

// span records one completed span on the rank's tracer.
func span(o *obs.Obs, name string) {
	sp := o.Span(name)
	sp.End()
}

// TestFenceGatherByteAccounting runs one fence on a 3-rank cluster with
// a known span pattern per rank and checks two contracts at once: the
// coordinator's table holds every rank's phases, and the transport
// counters equal the byte totals computed from the wire format —
// record sizes from the per-rank span pattern, an empty release per
// peer, each message charged len(payload)+len(tag)+8 on both sides.
func TestFenceGatherByteAccounting(t *testing.T) {
	const m = 3
	c := cluster.NewLocal(m)
	c.SetRecvTimeout(5 * time.Second)

	var (
		mu       sync.Mutex
		rootSnap Snapshot
		tagLen   int
		dtagLen  int
	)
	stats, err := c.Run(func(w *cluster.Worker) error {
		p := NewPlane(w.Obs(), w.Size())
		// Rank r records r+1 mttkrp spans and one solve span before the
		// fence — distinguishable payload sizes per rank.
		for i := 0; i <= w.Rank(); i++ {
			span(w.Obs(), "mode0/mttkrp")
		}
		span(w.Obs(), "solve")
		if err := p.Fence(w, 0, 0); err != nil {
			return err
		}
		mu.Lock()
		if w.Rank() == 0 {
			rootSnap = p.Snapshot()
		} else if tagLen == 0 {
			tagLen = len(w.StreamTag("obsfence"))
			dtagLen = len(w.StreamTag("obsfence/dec"))
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Coordinator table: every rank's phase deltas landed intact.
	if len(rootSnap.Ranks) != m {
		t.Fatalf("snapshot has %d rank rows, want %d", len(rootSnap.Ranks), m)
	}
	for r, row := range rootSnap.Ranks {
		counts := map[string]int64{}
		for _, ph := range row.Phases {
			counts[ph.Name] = ph.Count
		}
		if counts["mode0/mttkrp"] != int64(r+1) || counts["solve"] != 1 {
			t.Errorf("rank %d phases = %v, want mttkrp=%d solve=1", r, counts, r+1)
		}
		if row.HeapBytes <= 0 || row.Goroutines <= 0 {
			t.Errorf("rank %d runtime gauges not sampled: %+v", r, row)
		}
		if row.ComputeNs <= 0 {
			t.Errorf("rank %d computeNs = %d, want > 0", r, row.ComputeNs)
		}
	}

	// Exact byte accounting. Each non-root rank ships one record sized
	// by its span pattern; the coordinator releases each peer with an
	// empty message. Rank 0's own record never touches the wire.
	recordSize := func(r int) int64 {
		n := recordHeaderSize +
			phaseWireSize("mode0/mttkrp") + phaseWireSize("solve") +
			(r+1)*spanWireSize("mode0/mttkrp") + spanWireSize("solve")
		return int64(n)
	}
	var wantBytes int64
	for r := 1; r < m; r++ {
		wantBytes += recordSize(r) + int64(tagLen) + 8
		wantBytes += int64(dtagLen) + 8
	}
	var sentB, recvB, sentM, recvM int64
	for _, rk := range stats.Ranks {
		sentB += rk.BytesSent
		recvB += rk.BytesRecv
		sentM += rk.MsgsSent
		recvM += rk.MsgsRecv
	}
	if sentB != wantBytes {
		t.Errorf("sent %d bytes, want %d from the wire-format formula", sentB, wantBytes)
	}
	if wantMsgs := int64(2 * (m - 1)); sentM != wantMsgs {
		t.Errorf("sent %d messages, want %d", sentM, wantMsgs)
	}
	if recvB != sentB || recvM != sentM {
		t.Errorf("recv counters (%d bytes, %d msgs) != send counters (%d, %d)", recvB, recvM, sentB, sentM)
	}
}

// TestFenceAccumulatesAcrossRounds checks the delta discipline: phase
// counts in the coordinator table accumulate across fences and each
// fence only ships what changed since the last one.
func TestFenceAccumulatesAcrossRounds(t *testing.T) {
	const m = 2
	c := cluster.NewLocal(m)
	c.SetRecvTimeout(5 * time.Second)

	var rootSnap Snapshot
	_, err := c.Run(func(w *cluster.Worker) error {
		p := NewPlane(w.Obs(), w.Size())
		for step := 0; step < 3; step++ {
			span(w.Obs(), "mode0/mttkrp")
			span(w.Obs(), "mode0/mttkrp")
			if err := p.Fence(w, 0, step); err != nil {
				return err
			}
		}
		if w.Rank() == 0 {
			rootSnap = p.Snapshot()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rootSnap.Fences != 3 || rootSnap.Step != 2 {
		t.Fatalf("snapshot fences=%d step=%d, want 3 and 2", rootSnap.Fences, rootSnap.Step)
	}
	for _, row := range rootSnap.Ranks {
		if row.Fences != 3 {
			t.Errorf("rank %d saw %d fences, want 3", row.World, row.Fences)
		}
		for _, ph := range row.Phases {
			switch ph.Name {
			case "mode0/mttkrp":
				if ph.Count != 6 {
					t.Errorf("rank %d mttkrp count %d, want 6 across 3 fences", row.World, ph.Count)
				}
			case "plane/fence":
				// The fence span ends after collect, so it ships one
				// fence late: 2 of the 3 are visible.
				if ph.Count != 2 {
					t.Errorf("rank %d plane/fence count %d, want 2", row.World, ph.Count)
				}
			}
		}
	}
}

// TestTimelineEpochStamped drives a fence at a non-zero view epoch and
// checks the merged JSONL timeline carries the epoch and world-rank
// stamps on every span — the identity that separates pre- from
// post-transition work in a trace.
func TestTimelineEpochStamped(t *testing.T) {
	const m, epoch = 3, 5
	c := cluster.NewLocal(m)
	c.SetRecvTimeout(5 * time.Second)

	var buf bytes.Buffer
	_, err := c.Run(func(w *cluster.Worker) error {
		p := NewPlane(w.Obs(), w.Size())
		w.Obs().SetEpoch(epoch)
		span(w.Obs(), "stream/mttkrp")
		if err := p.Fence(w, epoch, 0); err != nil {
			return err
		}
		if w.Rank() == 0 {
			return obs.WriteJSONL(&buf, p.Timeline())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != m {
		t.Fatalf("timeline has %d spans, want %d", len(lines), m)
	}
	seen := map[int]bool{}
	var lastStart time.Duration = -1 << 62
	for _, line := range lines {
		var ev obs.SpanEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("timeline line %q: %v", line, err)
		}
		if ev.Name != "stream/mttkrp" {
			t.Errorf("span name %q, want stream/mttkrp", ev.Name)
		}
		if ev.Epoch != epoch {
			t.Errorf("span epoch %d, want %d", ev.Epoch, epoch)
		}
		seen[ev.Rank] = true
		if ev.Start < lastStart {
			t.Errorf("timeline out of order: %d after %d", ev.Start, lastStart)
		}
		lastStart = ev.Start
	}
	if len(seen) != m {
		t.Errorf("timeline covers ranks %v, want all %d", seen, m)
	}
}

// TestConcurrentScrape hammers the plane's read paths — Snapshot and
// Timeline, what a worker's /debug/state and /debug/timeline serve —
// and the registry's Prometheus encoding from a scraper goroutine while
// 3 ranks run fences. The race detector checks the locking, the
// assertions check no scrape observes a torn table (rank fence counts
// can differ by at most one mid-gather) or an unordered timeline.
func TestConcurrentScrape(t *testing.T) {
	const m, rounds = 3, 40
	c := cluster.NewLocal(m)
	c.SetRecvTimeout(10 * time.Second)

	var planeMu sync.Mutex
	var rootPlane *Plane
	getPlane := func() *Plane {
		planeMu.Lock()
		defer planeMu.Unlock()
		return rootPlane
	}
	var rootObs *obs.Obs
	done := make(chan struct{})
	scraped := 0
	var scrapeErr error
	go func() {
		defer close(done)
		deadline := time.Now().Add(10 * time.Second)
		for scraped < 200 && time.Now().Before(deadline) {
			p := getPlane()
			if p == nil {
				time.Sleep(time.Millisecond)
				continue
			}
			snap := p.Snapshot()
			lo, hi := int64(1<<62), int64(0)
			for _, row := range snap.Ranks {
				if row.Fences < lo {
					lo = row.Fences
				}
				if row.Fences > hi {
					hi = row.Fences
				}
			}
			if len(snap.Ranks) > 0 && hi-lo > 1 {
				scrapeErr = &tornSnapshotError{lo: lo, hi: hi}
				return
			}
			tl := p.Timeline()
			for i := 1; i < len(tl); i++ {
				if tl[i].Start < tl[i-1].Start {
					scrapeErr = &tornSnapshotError{lo: int64(tl[i-1].Start), hi: int64(tl[i].Start)}
					return
				}
			}
			var prom bytes.Buffer
			if err := rootObs.Reg.Snapshot().WritePrometheus(&prom); err != nil {
				scrapeErr = err
				return
			}
			if !strings.Contains(prom.String(), "plane_fences") {
				scrapeErr = &tornSnapshotError{}
				return
			}
			scraped++
		}
	}()

	_, err := c.Run(func(w *cluster.Worker) error {
		p := NewPlane(w.Obs(), w.Size())
		if w.Rank() == 0 {
			planeMu.Lock()
			rootPlane = p
			rootObs = w.Obs()
			planeMu.Unlock()
		}
		for step := 0; step < rounds; step++ {
			span(w.Obs(), "mode0/mttkrp")
			if err := p.Fence(w, 0, step); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if scrapeErr != nil {
		t.Fatalf("scraper: %v", scrapeErr)
	}
	if scraped == 0 {
		t.Fatal("scraper never completed a read")
	}
}

type tornSnapshotError struct{ lo, hi int64 }

func (e *tornSnapshotError) Error() string { return "torn snapshot" }
