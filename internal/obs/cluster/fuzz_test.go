package obscluster

import (
	"bytes"
	"runtime"
	"testing"

	"dismastd/internal/obs"
)

// FuzzFenceRecord: the decoder of fence traffic — the coordinator's
// record absorb — is total on arbitrary bytes. It never panics,
// allocates in proportion to its input, and round-trips what it
// accepts. A record the aggregator refuses leaves its table untouched;
// one it accepts lands in it.
func FuzzFenceRecord(f *testing.F) {
	rec := fenceRecord{
		world: 1, epoch: 2, step: 3, heap: 1 << 20, gcPause: 15, goroutines: 9,
		phases: []obs.PhaseStat{{Name: "mode0/mttkrp", Count: 2, Total: 5000}},
		spans:  []obs.SpanEvent{{Name: "solve", Epoch: 2, Snapshot: 1, Iter: -1, Start: 10, Dur: 3}},
	}
	buf := make([]byte, rec.size())
	rec.encode(buf)
	f.Add(buf)
	f.Add(buf[:len(buf)-1])
	f.Add(buf[:recordHeaderSize])
	f.Add(append(buf[:len(buf):len(buf)], 0)) // a trailing byte
	rec.world = 4                             // decodes, but is outside the aggregator's world
	foreign := make([]byte, rec.size())
	rec.encode(foreign)
	f.Add(foreign)
	f.Fuzz(func(t *testing.T, in []byte) {
		a := newAggregator(4)
		a.timeline = make([]obs.SpanEvent, 16) // a short ring keeps each run cheap
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var rec fenceRecord
		rerr := rec.decode(in, make(map[string]string))
		aerr := a.absorb(in)
		runtime.ReadMemStats(&after)
		// Entries decode to PhaseStat/SpanEvent structs (a few times
		// their wire size), twice over: here and in the aggregator.
		if n, ceiling := after.TotalAlloc-before.TotalAlloc, uint64(32*len(in)+1<<20); n > ceiling {
			t.Fatalf("%d input bytes allocated %d", len(in), n)
		}
		if rerr == nil {
			re := make([]byte, rec.size())
			rec.encode(re)
			if !bytes.Equal(re, in) {
				t.Fatalf("record re-encodes to %x, was %x", re, in)
			}
		}
		seen := 0
		for _, ra := range a.ranks {
			if ra.seen {
				seen++
			}
		}
		switch {
		case aerr != nil && (seen != 0 || a.tlTotal != 0):
			t.Fatalf("refused record (%v) changed the table", aerr)
		case aerr == nil && (rerr != nil || seen != 1 || a.tlTotal != uint64(len(rec.spans))):
			t.Fatalf("accepted record: decode %v, %d ranks seen, %d spans for %d", rerr, seen, a.tlTotal, len(rec.spans))
		}
	})
}
