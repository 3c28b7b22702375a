package obscluster

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"dismastd/internal/obs"
)

// phaseAgg is one (rank, span-name) cell of the cluster table.
type phaseAgg struct {
	Name    string
	Count   int64
	TotalNs int64
	LastNs  int64   // the most recent fence's delta
	EWMANs  float64 // EWMA of the per-fence deltas
}

// rankAgg accumulates one world rank's fence records.
type rankAgg struct {
	seen      bool
	fences    int64
	lastEpoch int64
	lastStep  int

	heapBytes  float64
	gcPauseNs  float64
	goroutines float64

	phases map[string]*phaseAgg
	order  []*phaseAgg // creation order; snapshots sort by name

	// computeNs is the last fence's compute-phase (mttkrp + solve)
	// delta total — the duration signal the detector EWMAs. Comm-wait
	// phases are excluded on purpose: a straggler inflates everyone
	// else's allreduce/exchange wait, which would cancel the skew the
	// detector is looking for.
	computeNs int64
}

// Aggregator is the coordinator-side half of the fence: it absorbs
// per-rank records into the cluster table and the merged timeline.
// Guarded by a mutex so the HTTP handlers can read while a fence runs.
type Aggregator struct {
	mu    sync.RWMutex
	cfg   Config
	alpha float64

	names   map[string]string // wire-name interning
	scratch fenceRecord       // decode target for peers' records
	ranks   []rankAgg         // indexed by world rank

	timeline []obs.SpanEvent // merged ring, overwritten in place
	tlTotal  uint64

	epoch  int64
	step   int
	fences int64
	last   Decision // weights cleared (alias-free copy of the scalars)
}

func newAggregator(cfg Config, worldSize int) *Aggregator {
	a := &Aggregator{
		cfg:      cfg,
		alpha:    cfg.Detector.Alpha,
		names:    make(map[string]string),
		ranks:    make([]rankAgg, worldSize),
		timeline: make([]obs.SpanEvent, cfg.TimelineCap),
	}
	for i := range a.ranks {
		a.ranks[i].phases = make(map[string]*phaseAgg)
	}
	return a
}

// apply folds one member's record into the table.
func (a *Aggregator) apply(rec *fenceRecord) error {
	if rec.world < 0 || rec.world >= len(a.ranks) {
		return fmt.Errorf("obscluster: fence record from world rank %d of %d", rec.world, len(a.ranks))
	}
	ra := &a.ranks[rec.world]
	ra.seen = true
	ra.fences++
	ra.lastEpoch = rec.epoch
	ra.lastStep = rec.step
	ra.heapBytes = rec.heap
	ra.gcPauseNs = rec.gcPause
	ra.goroutines = rec.goroutines
	ra.computeNs = 0
	for _, ps := range rec.phases {
		a.addPhase(ra, ps.Name, ps.Count, int64(ps.Total))
	}
	for _, ev := range rec.spans {
		a.addSpan(rec.world, ev.Name, ev.Epoch, ev.Snapshot, ev.Iter, ev.Start, ev.Dur)
	}
	return nil
}

func (a *Aggregator) addPhase(ra *rankAgg, name string, count, totalNs int64) {
	pa := ra.phases[name]
	if pa == nil {
		pa = &phaseAgg{Name: name}
		ra.phases[name] = pa
		ra.order = append(ra.order, pa)
	}
	pa.Count += count
	pa.TotalNs += totalNs
	pa.LastNs = totalNs
	if pa.EWMANs == 0 {
		pa.EWMANs = float64(totalNs)
	} else {
		pa.EWMANs = a.alpha*float64(totalNs) + (1-a.alpha)*pa.EWMANs
	}
	switch obs.PhaseOf(name) {
	case "mttkrp", "solve":
		ra.computeNs += totalNs
	}
}

func (a *Aggregator) addSpan(world int, name string, epoch int64, snapshot, iter int, start, dur time.Duration) {
	slot := &a.timeline[a.tlTotal%uint64(len(a.timeline))]
	slot.Name = name
	slot.Rank = world
	slot.Epoch = epoch
	slot.Snapshot = snapshot
	slot.Iter = iter
	slot.Start = start
	slot.Dur = dur
	a.tlTotal++
}

// absorb decodes one wire record and, once all of it has checked out,
// folds it into the table. Steady state (all names interned, ring warm)
// allocates nothing.
func (a *Aggregator) absorb(payload []byte) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.scratch.decode(payload, a.names); err != nil {
		return err
	}
	return a.apply(&a.scratch)
}

// absorbLocal folds the coordinator's own record into the table without
// a wire round-trip — the root's record costs zero bytes, like the root
// contribution to a gather.
func (a *Aggregator) absorbLocal(rec *fenceRecord) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.apply(rec); err != nil {
		// The coordinator's own world rank is validated at construction
		// time; reaching this means the plane was built with the wrong
		// world size.
		panic(err)
	}
}

// evaluate runs the detector over the freshly absorbed fence and stores
// the decision for the HTTP snapshot.
func (a *Aggregator) evaluate(det *Detector, members []int, loads []float64, epoch int64, step int) Decision {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.epoch = epoch
	a.step = step
	a.fences++
	dec := det.evaluate(a, members, loads, step)
	a.last = dec
	a.last.Weights = nil // the scratch alias must not leak to readers
	return dec
}

// PhaseAggSnapshot is one (rank, phase) cell of the exported table.
type PhaseAggSnapshot struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	TotalNs int64   `json:"total_ns"`
	LastNs  int64   `json:"last_ns"`
	EWMANs  float64 `json:"ewma_ns"`
}

// RankAggSnapshot is one rank's row of the exported table.
type RankAggSnapshot struct {
	World      int                `json:"world"`
	Fences     int64              `json:"fences"`
	Epoch      int64              `json:"epoch"`
	Step       int                `json:"step"`
	HeapBytes  float64            `json:"heap_bytes"`
	GCPauseNs  float64            `json:"gc_pause_ns"`
	Goroutines float64            `json:"goroutines"`
	ComputeNs  int64              `json:"compute_ns"`
	Phases     []PhaseAggSnapshot `json:"phases,omitempty"`
}

// DetectorSnapshot is the detector's exported state.
type DetectorSnapshot struct {
	Threshold    float64 `json:"threshold"`
	Cooldown     int     `json:"cooldown"`
	Armed        bool    `json:"armed"`
	CV           float64 `json:"cv"`
	LoadCV       float64 `json:"load_cv"`
	DurCV        float64 `json:"duration_cv"`
	Suggested    int64   `json:"suggested"`
	Fired        int64   `json:"fired"`
	LastFireStep int     `json:"last_fire_step"` // -1 before any fire
}

// Snapshot is the /debug/cluster document.
type Snapshot struct {
	Epoch         int64             `json:"epoch"`
	Step          int               `json:"step"`
	Fences        int64             `json:"fences"`
	TimelineSpans uint64            `json:"timeline_spans"`
	Detector      DetectorSnapshot  `json:"detector"`
	Ranks         []RankAggSnapshot `json:"ranks"`
}

// Snapshot copies the cluster table under the read lock. The copy is
// internally consistent — a concurrent fence either lands entirely
// before or entirely after it, never torn.
func (p *Plane) Snapshot() Snapshot {
	a := p.agg
	a.mu.RLock()
	defer a.mu.RUnlock()
	s := Snapshot{
		Epoch:         a.epoch,
		Step:          a.step,
		Fences:        a.fences,
		TimelineSpans: a.tlTotal,
		Detector:      p.det.snapshot(a.last),
	}
	for world := range a.ranks {
		ra := &a.ranks[world]
		if !ra.seen {
			continue
		}
		rs := RankAggSnapshot{
			World:      world,
			Fences:     ra.fences,
			Epoch:      ra.lastEpoch,
			Step:       ra.lastStep,
			HeapBytes:  ra.heapBytes,
			GCPauseNs:  ra.gcPauseNs,
			Goroutines: ra.goroutines,
			ComputeNs:  ra.computeNs,
		}
		for _, pa := range ra.order {
			rs.Phases = append(rs.Phases, PhaseAggSnapshot{
				Name:    pa.Name,
				Count:   pa.Count,
				TotalNs: pa.TotalNs,
				LastNs:  pa.LastNs,
				EWMANs:  pa.EWMANs,
			})
		}
		sort.Slice(rs.Phases, func(i, j int) bool { return rs.Phases[i].Name < rs.Phases[j].Name })
		s.Ranks = append(s.Ranks, rs)
	}
	return s
}

// WriteTimelineJSONL exports the merged cluster timeline — every rank's
// retained spans, world-rank stamped, ordered by span start — as one
// JSON object per line. Start times are relative to each process's
// tracer creation; on the in-process cluster they share one clock.
func (p *Plane) WriteTimelineJSONL(w io.Writer) error {
	a := p.agg
	a.mu.RLock()
	n := a.tlTotal
	ring := uint64(len(a.timeline))
	if n > ring {
		n = ring
	}
	events := make([]obs.SpanEvent, 0, n)
	start := a.tlTotal - n
	for seq := start; seq < a.tlTotal; seq++ {
		events = append(events, a.timeline[seq%ring])
	}
	a.mu.RUnlock()
	sort.SliceStable(events, func(i, j int) bool { return events[i].Start < events[j].Start })
	enc := json.NewEncoder(w)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}
