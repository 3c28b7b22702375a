package obscluster

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"dismastd/internal/obs"
)

// Fence wire format (little-endian). One FenceRecord per member per
// fence:
//
//	header   u32 world · i64 epoch · u32 step · f64 heapBytes ·
//	         f64 gcPauseNs · f64 goroutines · u32 nPhases · u32 nSpans
//	phase    u16 nameLen · name · i64 count · i64 totalNs      (deltas)
//	span     u16 nameLen · name · i64 epoch · i32 snapshot ·
//	         i32 iter · i64 startNs · i64 durNs
//
// Every size is exactly computable from the contents, which is what the
// byte-accounting test asserts against the transport counters.
const (
	recordHeaderSize = 4 + 8 + 4 + 8*3 + 4 + 4
	phaseEntryFixed  = 2 + 8 + 8
	spanEntryFixed   = 2 + 8 + 4 + 4 + 8 + 8
)

// phaseWireSize returns one phase delta's encoded size.
func phaseWireSize(name string) int { return phaseEntryFixed + len(name) }

// spanWireSize returns one span event's encoded size.
func spanWireSize(name string) int { return spanEntryFixed + len(name) }

// fenceRecord is one member's report for one fence, in wire order. A
// rank fills its own from its tracer, the coordinator decodes peers'
// into a reused one, and Aggregator.apply folds either into the table.
type fenceRecord struct {
	world                     int
	epoch                     int64
	step                      int
	heap, gcPause, goroutines float64
	phases                    []obs.PhaseStat
	spans                     []obs.SpanEvent
}

// size returns the record's exact encoded size.
func (rec *fenceRecord) size() int {
	n := recordHeaderSize
	for _, ps := range rec.phases {
		n += phaseWireSize(ps.Name)
	}
	for _, ev := range rec.spans {
		n += spanWireSize(ev.Name)
	}
	return n
}

// encode writes the record into buf, which must be exactly size()
// long.
func (rec *fenceRecord) encode(buf []byte) {
	le := binary.LittleEndian
	le.PutUint32(buf[0:], uint32(rec.world))
	le.PutUint64(buf[4:], uint64(rec.epoch))
	le.PutUint32(buf[12:], uint32(rec.step))
	le.PutUint64(buf[16:], math.Float64bits(rec.heap))
	le.PutUint64(buf[24:], math.Float64bits(rec.gcPause))
	le.PutUint64(buf[32:], math.Float64bits(rec.goroutines))
	le.PutUint32(buf[40:], uint32(len(rec.phases)))
	le.PutUint32(buf[44:], uint32(len(rec.spans)))
	off := recordHeaderSize
	for _, ps := range rec.phases {
		le.PutUint16(buf[off:], uint16(len(ps.Name)))
		off += 2 + copy(buf[off+2:], ps.Name)
		le.PutUint64(buf[off:], uint64(ps.Count))
		le.PutUint64(buf[off+8:], uint64(ps.Total))
		off += 16
	}
	for _, ev := range rec.spans {
		le.PutUint16(buf[off:], uint16(len(ev.Name)))
		off += 2 + copy(buf[off+2:], ev.Name)
		le.PutUint64(buf[off:], uint64(ev.Epoch))
		le.PutUint32(buf[off+8:], uint32(ev.Snapshot))
		le.PutUint32(buf[off+12:], uint32(ev.Iter))
		le.PutUint64(buf[off+16:], uint64(ev.Start))
		le.PutUint64(buf[off+24:], uint64(ev.Dur))
		off += 32
	}
	if off != len(buf) {
		panic(fmt.Sprintf("obscluster: encoded %d bytes into a %d-byte record", off, len(buf)))
	}
}

// decode parses a wire record into rec, reusing its slices and
// interning names, so a warm decoder allocates nothing; entries grow
// only as the payload holds them.
func (rec *fenceRecord) decode(p []byte, names map[string]string) error {
	if len(p) < recordHeaderSize {
		return fmt.Errorf("obscluster: fence record %d bytes, want >= %d", len(p), recordHeaderSize)
	}
	le := binary.LittleEndian
	rec.world = int(le.Uint32(p[0:]))
	rec.epoch = int64(le.Uint64(p[4:]))
	rec.step = int(le.Uint32(p[12:]))
	rec.heap = math.Float64frombits(le.Uint64(p[16:]))
	rec.gcPause = math.Float64frombits(le.Uint64(p[24:]))
	rec.goroutines = math.Float64frombits(le.Uint64(p[32:]))
	nPhases, nSpans := int(le.Uint32(p[40:])), int(le.Uint32(p[44:]))
	rec.phases, rec.spans = rec.phases[:0], rec.spans[:0]
	off := recordHeaderSize
	for i := 0; i < nPhases; i++ {
		name, next, ok := wireName(p, off, phaseEntryFixed)
		if !ok {
			return fmt.Errorf("obscluster: truncated phase entry %d", i)
		}
		rec.phases = append(rec.phases, obs.PhaseStat{
			Name:  intern(names, name),
			Count: int64(le.Uint64(p[next:])),
			Total: time.Duration(le.Uint64(p[next+8:])),
		})
		off = next + 16
	}
	for i := 0; i < nSpans; i++ {
		name, next, ok := wireName(p, off, spanEntryFixed)
		if !ok {
			return fmt.Errorf("obscluster: truncated span entry %d", i)
		}
		rec.spans = append(rec.spans, obs.SpanEvent{
			Name:     intern(names, name),
			Epoch:    int64(le.Uint64(p[next:])),
			Snapshot: int(int32(le.Uint32(p[next+8:]))),
			Iter:     int(int32(le.Uint32(p[next+12:]))),
			Start:    time.Duration(le.Uint64(p[next+16:])),
			Dur:      time.Duration(le.Uint64(p[next+24:])),
		})
		off = next + 32
	}
	if off != len(p) {
		return fmt.Errorf("obscluster: %d trailing bytes after fence record", len(p)-off)
	}
	return nil
}

// wireName returns the length-prefixed name at off and the offset past
// it, provided the whole fixed-size entry it starts fits in p.
func wireName(p []byte, off, entry int) ([]byte, int, bool) {
	if len(p) < off+2 {
		return nil, 0, false
	}
	l := int(binary.LittleEndian.Uint16(p[off:]))
	if len(p) < off+l+entry {
		return nil, 0, false
	}
	return p[off+2 : off+2+l], off + 2 + l, true
}

// intern canonicalises a wire name; the lookup keyed by string(b) does
// not allocate.
func intern(names map[string]string, b []byte) string {
	if s, ok := names[string(b)]; ok {
		return s
	}
	s := string(b)
	names[s] = s
	return s
}

// reporter is the rank-side half of the fence: it snapshots this rank's
// tracer deltas, runtime gauges, and fresh spans into a reused record.
// All fields are single-goroutine (the rank's worker loop).
type reporter struct {
	sampler    *obs.RuntimeSampler
	heap       *obs.Gauge
	gcPause    *obs.Gauge
	goroutines *obs.Gauge

	spanCap int
	prev    map[string]obs.PhaseStat
	cur     []obs.PhaseStat
	rec     fenceRecord
	spanSeq uint64
}

func newReporter(o *obs.Obs, spanCap int) *reporter {
	var reg *obs.Registry
	if o != nil {
		reg = o.Reg
	}
	return &reporter{
		sampler:    obs.NewRuntimeSampler(reg),
		heap:       o.Gauge("runtime.heap.bytes"),
		gcPause:    o.Gauge("runtime.gc.pause.ns"),
		goroutines: o.Gauge("runtime.goroutines"),
		spanCap:    spanCap,
		prev:       make(map[string]obs.PhaseStat),
	}
}

// collect samples the runtime gauges and refills the record from the
// tracer. Steady state allocates nothing: the record's slices are reused
// and the prev map only grows on first sight of a phase.
func (r *reporter) collect(tr *obs.Tracer, world int, epoch int64, step int) *fenceRecord {
	r.sampler.Sample()
	rec := &r.rec
	rec.world, rec.epoch, rec.step = world, epoch, step
	rec.heap, rec.gcPause, rec.goroutines = r.heap.Value(), r.gcPause.Value(), r.goroutines.Value()
	r.cur = tr.AppendPhases(r.cur[:0])
	rec.phases = rec.phases[:0]
	for _, ps := range r.cur {
		prev := r.prev[ps.Name]
		d := obs.PhaseStat{Name: ps.Name, Count: ps.Count - prev.Count, Total: ps.Total - prev.Total}
		if d.Count > 0 {
			rec.phases = append(rec.phases, d)
		}
		r.prev[ps.Name] = ps
	}
	rec.spans, r.spanSeq = tr.AppendEventsSince(r.spanSeq, rec.spans[:0])
	if len(rec.spans) > r.spanCap {
		rec.spans = rec.spans[len(rec.spans)-r.spanCap:]
	}
	return rec
}
