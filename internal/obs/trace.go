package obs

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// DefaultTraceCapacity is the ring-buffer size a zero capacity asks
// for: enough for several paper-scale steps (7 phases x 3 modes x 10
// sweeps x a handful of snapshots) without unbounded growth.
const DefaultTraceCapacity = 4096

// SpanEvent is one completed span in the trace ring. Start is relative
// to the tracer's creation, so events from one process line up on a
// shared axis.
type SpanEvent struct {
	Name     string        `json:"name"`
	Rank     int           `json:"rank"`
	Epoch    int64         `json:"epoch"`
	Snapshot int           `json:"snapshot"`
	Iter     int           `json:"iter"`
	Start    time.Duration `json:"start_ns"`
	Dur      time.Duration `json:"dur_ns"`
}

// PhaseStat aggregates every completed span sharing one name.
type PhaseStat struct {
	Name  string        `json:"name"`
	Count int64         `json:"count"`
	Total time.Duration `json:"total_ns"`
}

// Tracer records spans into a fixed ring buffer and keeps running
// per-name aggregates. Recording takes a short mutex and never
// allocates: the ring slots are value structs overwritten in place, and
// the aggregate map only grows on the first occurrence of a name —
// which is why hot paths precompute their span names (e.g. the
// "mode2/mttkrp" strings) instead of formatting them per sweep.
type Tracer struct {
	epoch time.Time

	mu     sync.Mutex
	ring   []SpanEvent
	total  uint64 // spans ever recorded; ring index = total % len(ring)
	phases map[string]*PhaseStat
	rank   int
	vepoch int64 // cluster view epoch (elastic membership)
	snap   int
	iter   int
}

// newTracer returns a tracer with the given ring capacity (<= 0 means
// DefaultTraceCapacity).
func newTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{
		epoch:  time.Now(),
		ring:   make([]SpanEvent, capacity),
		phases: make(map[string]*PhaseStat),
	}
}

// SetRank stamps subsequent spans with the worker's rank.
func (t *Tracer) SetRank(rank int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.rank = rank
	t.mu.Unlock()
}

// SetEpoch stamps subsequent spans with the cluster view epoch, so
// timelines recorded before and after an elastic membership transition
// are distinguishable in the exported JSONL.
func (t *Tracer) SetEpoch(epoch int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.vepoch = epoch
	t.mu.Unlock()
}

// SetSnapshot stamps subsequent spans with the streaming-step index.
func (t *Tracer) SetSnapshot(snap int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.snap = snap
	t.mu.Unlock()
}

// SetIter stamps subsequent spans with the ALS sweep index.
func (t *Tracer) SetIter(iter int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.iter = iter
	t.mu.Unlock()
}

// Span is an open span; End records it. The zero Span (from a nil
// tracer) is a no-op.
type Span struct {
	t     *Tracer
	name  string
	begin time.Time
}

// Start opens a span under the given name. Nil-safe.
func (t *Tracer) Start(name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, name: name, begin: time.Now()}
}

// End records the span's duration into the ring and the per-phase
// aggregates. No-op on the zero Span.
func (s Span) End() {
	if s.t == nil {
		return
	}
	end := time.Now()
	t := s.t
	t.mu.Lock()
	ev := &t.ring[t.total%uint64(len(t.ring))]
	ev.Name = s.name
	ev.Rank = t.rank
	ev.Epoch = t.vepoch
	ev.Snapshot = t.snap
	ev.Iter = t.iter
	ev.Start = s.begin.Sub(t.epoch)
	ev.Dur = end.Sub(s.begin)
	t.total++
	ps := t.phases[s.name]
	if ps == nil {
		ps = &PhaseStat{Name: s.name}
		t.phases[s.name] = ps
	}
	ps.Count++
	ps.Total += ev.Dur
	t.mu.Unlock()
}

// Count returns how many spans have ever been recorded (the ring keeps
// the most recent min(Count, capacity)).
func (t *Tracer) Count() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Events returns the retained spans oldest-first.
func (t *Tracer) Events() []SpanEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.eventsLocked()
}

func (t *Tracer) eventsLocked() []SpanEvent {
	n := uint64(len(t.ring))
	if t.total <= n {
		return append([]SpanEvent(nil), t.ring[:t.total]...)
	}
	head := t.total % n
	out := make([]SpanEvent, 0, n)
	out = append(out, t.ring[head:]...)
	out = append(out, t.ring[:head]...)
	return out
}

// AppendEventsSince appends retained spans recorded at or after
// sequence number seq (as returned by Count) into dst, oldest-first,
// and returns the extended slice plus the tracer's current sequence
// number (the seq to pass next time). Spans that have already been
// overwritten are silently absent. It reuses the caller's backing
// array, so a steady-state caller that hands back a slice of
// sufficient capacity allocates nothing — the fence-time gather path
// depends on this.
func (t *Tracer) AppendEventsSince(seq uint64, dst []SpanEvent) ([]SpanEvent, uint64) {
	if t == nil {
		return dst, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := uint64(len(t.ring))
	retained := t.total
	if retained > n {
		retained = n
	}
	oldest := t.total - retained // sequence number of the oldest retained span
	if seq < oldest {
		seq = oldest
	}
	for ; seq < t.total; seq++ {
		dst = append(dst, t.ring[seq%n])
	}
	return dst, t.total
}

// AppendPhases appends a copy of every per-name aggregate into dst and
// returns the extended slice, in no particular order (the map's). The
// alloc-free sibling of Phases for steady-state callers that reuse
// their slice and don't need the sorted view.
func (t *Tracer) AppendPhases(dst []PhaseStat) []PhaseStat {
	if t == nil {
		return dst
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, ps := range t.phases {
		dst = append(dst, *ps)
	}
	return dst
}

// Phases returns the per-name aggregates sorted by name.
func (t *Tracer) Phases() []PhaseStat {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]PhaseStat, 0, len(t.phases))
	for _, ps := range t.phases {
		out = append(out, *ps)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteJSONL writes span events as one JSON object per line — the one
// timeline encoding, for a rank's own ring (Tracer.Events) and for the
// cluster plane's merged timeline alike.
func WriteJSONL(w io.Writer, events []SpanEvent) error {
	enc := json.NewEncoder(w)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}

// PhaseOf extracts the phase component of a span name: the part after
// the last '/', so "mode2/mttkrp" and "mode0/mttkrp" both map to
// "mttkrp" while mode-less names ("loss") map to themselves.
func PhaseOf(name string) string {
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		return name[i+1:]
	}
	return name
}

// AggregatePhases merges per-name stats by their PhaseOf component,
// summing counts and totals, sorted by phase name. Used for the
// per-phase breakdown tables, where "mode0/mttkrp".."mode2/mttkrp"
// should read as one MTTKRP row.
func AggregatePhases(stats []PhaseStat) []PhaseStat {
	merged := make(map[string]*PhaseStat)
	for _, ps := range stats {
		phase := PhaseOf(ps.Name)
		m := merged[phase]
		if m == nil {
			m = &PhaseStat{Name: phase}
			merged[phase] = m
		}
		m.Count += ps.Count
		m.Total += ps.Total
	}
	out := make([]PhaseStat, 0, len(merged))
	for _, ps := range merged {
		out = append(out, *ps)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// subPhases returns cur − base matched by name: phases whose counts
// grew keep the difference, unchanged phases are dropped. Both inputs
// are per-name stats as returned by Tracer.Phases.
func subPhases(cur, base []PhaseStat) []PhaseStat {
	prev := make(map[string]PhaseStat, len(base))
	for _, ps := range base {
		prev[ps.Name] = ps
	}
	var out []PhaseStat
	for _, ps := range cur {
		b := prev[ps.Name]
		d := PhaseStat{Name: ps.Name, Count: ps.Count - b.Count, Total: ps.Total - b.Total}
		if d.Count > 0 {
			out = append(out, d)
		}
	}
	return out
}
