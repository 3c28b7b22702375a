package dismastd_test

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dismastd"
)

// stagedTensor builds a random sparse tensor whose every staged prefix
// has an entry at its corner, so an event feed of each stage's new
// region reaches exactly the stage's dims by coordinate growth alone.
func stagedTensor(t *testing.T, stages [][]int, nnz int, seed int64) *dismastd.Tensor {
	t.Helper()
	full := stages[len(stages)-1]
	rng := rand.New(rand.NewSource(seed))
	b := dismastd.NewBuilder(full)
	idx := make([]int, len(full))
	for e := 0; e < nnz; e++ {
		for m, d := range full {
			idx[m] = rng.Intn(d)
		}
		b.Append(idx, rng.Float64()+0.5)
	}
	for _, dims := range stages {
		for m, d := range dims {
			idx[m] = d - 1
		}
		b.Append(idx, 1)
	}
	return b.Build()
}

// eventsOf converts a tensor's entries into events in order.
func eventsOf(x *dismastd.Tensor) []dismastd.Event {
	out := make([]dismastd.Event, x.NNZ())
	for e := range out {
		out[e] = dismastd.Event{Coords: x.Coord(e, nil), Value: x.Val(e)}
	}
	return out
}

func equalFactors(t *testing.T, label string, a, b []*dismastd.Dense) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d modes", label, len(a), len(b))
	}
	for m := range a {
		if a[m].Rows != b[m].Rows || a[m].Cols != b[m].Cols {
			t.Fatalf("%s: mode %d is %dx%d vs %dx%d", label, m, a[m].Rows, a[m].Cols, b[m].Rows, b[m].Cols)
		}
		for i := range a[m].Data {
			if a[m].Data[i] != b[m].Data[i] {
				t.Fatalf("%s: mode %d differs at element %d: %v vs %v", label, m, i, a[m].Data[i], b[m].Data[i])
			}
		}
	}
}

// TestEventPathMatchesBulkAtBoundaries is the tentpole invariant: a
// stream fed each snapshot's new region as events, flushed at the
// snapshot boundary, holds factors bitwise identical to a stream fed
// the cumulative snapshots in bulk — for the centralized and the
// distributed engine alike.
func TestEventPathMatchesBulkAtBoundaries(t *testing.T) {
	stages := [][]int{{6, 5, 4}, {8, 6, 5}, {10, 8, 6}}
	full := stagedTensor(t, stages, 300, 42)
	for _, workers := range []int{1, 3} {
		opts := dismastd.Options{Rank: 3, MaxIters: 6, Seed: 9, Workers: workers}
		bulk := dismastd.NewStream(opts)
		ev := dismastd.NewStream(opts)
		prevDims := []int(nil)
		for si, dims := range stages {
			snap := full.Prefix(dims)
			if _, err := bulk.Ingest(snap); err != nil {
				t.Fatalf("workers=%d bulk %d: %v", workers, si, err)
			}
			var region *dismastd.Tensor
			if prevDims == nil {
				region = snap
			} else {
				region = snap.Complement(prevDims)
			}
			events := eventsOf(region)
			// Micro-batches of varying size, to exercise batching.
			for lo := 0; lo < len(events); {
				hi := lo + 1 + lo%3
				if hi > len(events) {
					hi = len(events)
				}
				if _, err := ev.IngestEvents(events[lo:hi]); err != nil {
					t.Fatalf("workers=%d events %d: %v", workers, si, err)
				}
				lo = hi
			}
			if _, err := ev.Flush(); err != nil {
				t.Fatalf("workers=%d flush %d: %v", workers, si, err)
			}
			equalFactors(t, "boundary", bulk.Factors(), ev.Factors())
			if bulk.Snapshots() != ev.Snapshots() {
				t.Fatalf("workers=%d: %d vs %d boundaries", workers, bulk.Snapshots(), ev.Snapshots())
			}
			prevDims = dims
		}
	}
}

// fitOf measures 1 − ‖X − X̂‖/‖X‖ over every cell of x.
func fitOf(s *dismastd.Stream, x *dismastd.Tensor) float64 {
	idx := make([]int, len(x.Dims))
	var walk func(m int) float64
	walk = func(m int) float64 {
		if m == len(x.Dims) {
			d := x.At(idx) - s.Predict(idx)
			return d * d
		}
		sum := 0.0
		for i := 0; i < x.Dims[m]; i++ {
			idx[m] = i
			sum += walk(m + 1)
		}
		return sum
	}
	return 1 - math.Sqrt(walk(0))/x.Norm()
}

// TestEventStreamFitProperty is the randomized property behind the
// parity guarantee: across random tensors and random micro-batch
// splits, the event-fed stream's factors are exactly the bulk stream's
// at every full-sweep boundary, and between boundaries the bounded-work
// updates keep the fit within tolerance of the bulk result.
func TestEventStreamFitProperty(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		seed := int64(100 + trial)
		rng := rand.New(rand.NewSource(seed))
		stages := [][]int{{5, 4, 4}, {7, 6, 5}}
		full := stagedTensor(t, stages, 150+trial*40, seed)
		opts := dismastd.Options{Rank: 2, MaxIters: 8, Seed: uint64(trial + 1)}
		bulk := dismastd.NewStream(opts)
		ev := dismastd.NewStream(opts)

		snap0 := full.Prefix(stages[0])
		if _, err := bulk.Ingest(snap0); err != nil {
			t.Fatal(err)
		}
		if _, err := ev.IngestEvents(eventsOf(snap0)); err != nil {
			t.Fatal(err)
		}
		if _, err := ev.Flush(); err != nil {
			t.Fatal(err)
		}

		snap1 := full.Prefix(stages[1])
		events := eventsOf(snap1.Complement(stages[0]))
		rng.Shuffle(len(events), func(i, j int) { events[i], events[j] = events[j], events[i] })
		for lo := 0; lo < len(events); {
			hi := lo + 1 + rng.Intn(4)
			if hi > len(events) {
				hi = len(events)
			}
			if _, err := ev.IngestEvents(events[lo:hi]); err != nil {
				t.Fatal(err)
			}
			lo = hi
		}
		if _, err := bulk.Ingest(snap1); err != nil {
			t.Fatal(err)
		}
		// Mid-window: bounded-work updates only, fit within tolerance.
		evFit, bulkFit := fitOf(ev, snap1), fitOf(bulk, snap1)
		if evFit < bulkFit-0.15 {
			t.Fatalf("trial %d: pre-flush event fit %v too far below bulk %v", trial, evFit, bulkFit)
		}
		// Boundary: exactly equal.
		if _, err := ev.Flush(); err != nil {
			t.Fatal(err)
		}
		equalFactors(t, "property boundary", bulk.Factors(), ev.Factors())
	}
}

// TestEventsGrowDims: out-of-range coordinates grow the live modes
// immediately — the multi-aspect case — and serving reflects the grown
// rows before any sweep.
func TestEventsGrowDims(t *testing.T) {
	first, _ := growingRatings(t)
	s := dismastd.NewStream(dismastd.Options{Rank: 2, MaxIters: 5, Seed: 3})
	if _, err := s.Ingest(first); err != nil {
		t.Fatal(err)
	}
	rep, err := s.IngestEvents([]dismastd.Event{{Coords: []int{9, 7, 4}, Value: 2.5}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Grew {
		t.Fatal("growth event did not report Grew")
	}
	want := []int{10, 8, 5}
	for m, d := range s.Dims() {
		if d != want[m] {
			t.Fatalf("dims %v, want %v", s.Dims(), want)
		}
	}
	if rep.RowsUpdated == 0 {
		t.Fatal("growth event updated no rows")
	}
	s.Predict([]int{9, 7, 4}) // must not panic on the grown region
}

// TestEventBatchChangesOnlyNamedRows pins the contract incremental
// consumers of Factors (the serving front end's copy-on-write
// snapshots) rely on: an IngestEvents call that did not sweep leaves
// every factor row bitwise unchanged unless the batch names it in that
// mode or the call appended it. Random batches, some growing one or
// all modes, with sweeps firing in between.
func TestEventBatchChangesOnlyNamedRows(t *testing.T) {
	first, _ := growingRatings(t)
	for _, workers := range []int{1, 3} {
		s := dismastd.NewStream(dismastd.Options{Rank: 3, MaxIters: 4, Seed: 6, Workers: workers, SweepEvery: 40})
		if _, err := s.Ingest(first); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(77))
		var sweeps, growths, changed int
		for step := 0; step < 150; step++ {
			dims := append([]int(nil), s.Dims()...)
			before := make([][]float64, len(dims))
			for m, f := range s.Factors() {
				before[m] = append([]float64(nil), f.Data...)
			}
			batch := make([]dismastd.Event, 1+rng.Intn(5))
			for e := range batch {
				coords := make([]int, len(dims))
				for m, d := range dims {
					coords[m] = rng.Intn(d)
				}
				batch[e] = dismastd.Event{Coords: coords, Value: 1 + 4*rng.Float64()}
			}
			switch rng.Intn(6) {
			case 0: // grow one mode
				m := rng.Intn(len(dims))
				batch[len(batch)-1].Coords[m] = dims[m] + rng.Intn(2)
			case 1: // grow every mode
				for m, d := range dims {
					batch[0].Coords[m] = d
				}
			}
			rep, err := s.IngestEvents(batch)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Sweep != nil {
				sweeps++
				continue
			}
			if rep.Grew {
				growths++
			}
			for m, f := range s.Factors() {
				if f.Rows < dims[m] {
					t.Fatalf("step %d: mode %d shrank %d -> %d", step, m, dims[m], f.Rows)
				}
				named := map[int]bool{}
				for _, ev := range batch {
					named[ev.Coords[m]] = true
				}
				for i := 0; i < dims[m]; i++ {
					for c, v := range f.Row(i) {
						if math.Float64bits(v) == math.Float64bits(before[m][i*f.Cols+c]) {
							continue
						}
						if !named[i] {
							t.Fatalf("workers=%d step %d: mode %d row %d changed but the batch does not name it", workers, step, m, i)
						}
						changed++
					}
				}
			}
		}
		if sweeps == 0 || growths == 0 || changed == 0 {
			t.Fatalf("workers=%d: vacuous run: %d sweeps, %d growths, %d changed elements", workers, sweeps, growths, changed)
		}
	}
}

// TestSweepEveryAutoFlush: the drift backstop fires on its own once
// the pending region reaches the threshold.
func TestSweepEveryAutoFlush(t *testing.T) {
	first, _ := growingRatings(t)
	s := dismastd.NewStream(dismastd.Options{Rank: 2, MaxIters: 5, Seed: 3, SweepEvery: 3})
	if _, err := s.Ingest(first); err != nil {
		t.Fatal(err)
	}
	var swept bool
	for i := 0; i < 3; i++ {
		rep, err := s.IngestEvents([]dismastd.Event{{Coords: []int{6, 5, 3}, Value: float64(i + 1)}})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Sweep != nil {
			swept = true
			if rep.Pending != 0 {
				t.Fatalf("pending %d after auto sweep", rep.Pending)
			}
		}
	}
	if !swept {
		t.Fatal("SweepEvery=3 never fired after 3 events")
	}
	if s.Snapshots() != 2 {
		t.Fatalf("%d boundaries, want 2 (init + auto sweep)", s.Snapshots())
	}
}

// TestPreInitEventsMatchBulkInit: events buffered before any
// decomposition flush into exactly the CP-ALS init a bulk Ingest of
// the same data performs.
func TestPreInitEventsMatchBulkInit(t *testing.T) {
	first, _ := growingRatings(t)
	opts := dismastd.Options{Rank: 2, MaxIters: 8, Seed: 5}
	bulk := dismastd.NewStream(opts)
	if _, err := bulk.Ingest(first); err != nil {
		t.Fatal(err)
	}
	ev := dismastd.NewStream(opts)
	events := eventsOf(first)
	if _, err := ev.IngestEvents(events[:4]); err != nil {
		t.Fatal(err)
	}
	if ev.Factors() != nil {
		t.Fatal("factors exist before the first flush")
	}
	if _, err := ev.IngestEvents(events[4:]); err != nil {
		t.Fatal(err)
	}
	rep, err := ev.Flush()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Snapshot != 0 || rep.Iters == 0 {
		t.Fatalf("init flush report %+v", rep)
	}
	equalFactors(t, "pre-init", bulk.Factors(), ev.Factors())
}

// TestSaveResumeKeepsSnapshotCounter: the checkpoint carries the
// boundary counter, so the resumed stream's next step uses the same
// index — and therefore the same growth seed — as the uninterrupted
// one.
func TestSaveResumeKeepsSnapshotCounter(t *testing.T) {
	stages := [][]int{{6, 5, 4}, {8, 6, 5}, {10, 8, 6}}
	full := stagedTensor(t, stages, 250, 77)
	opts := dismastd.Options{Rank: 2, MaxIters: 5, Seed: 11}
	s := dismastd.NewStream(opts)
	for _, dims := range stages[:2] {
		if _, err := s.Ingest(full.Prefix(dims)); err != nil {
			t.Fatal(err)
		}
	}
	var ckpt bytes.Buffer
	if err := s.Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	restored, err := dismastd.ResumeStream(bytes.NewReader(ckpt.Bytes()), opts)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Snapshots() != 2 {
		t.Fatalf("restored stream reports %d snapshots, want 2", restored.Snapshots())
	}
	repA, err := s.Ingest(full.Prefix(stages[2]))
	if err != nil {
		t.Fatal(err)
	}
	repB, err := restored.Ingest(full.Prefix(stages[2]))
	if err != nil {
		t.Fatal(err)
	}
	if repA.Snapshot != 2 || repB.Snapshot != 2 {
		t.Fatalf("snapshot indices %d vs %d, want 2", repA.Snapshot, repB.Snapshot)
	}
	equalFactors(t, "resumed", s.Factors(), restored.Factors())
}

// TestSaveFlushesPendingEvents: Save checkpoints a sweep boundary, so
// pending events are flushed into it rather than dropped.
func TestSaveFlushesPendingEvents(t *testing.T) {
	first, _ := growingRatings(t)
	opts := dismastd.Options{Rank: 2, MaxIters: 5, Seed: 3}
	s := dismastd.NewStream(opts)
	if _, err := s.Ingest(first); err != nil {
		t.Fatal(err)
	}
	if _, err := s.IngestEvents([]dismastd.Event{{Coords: []int{5, 5, 3}, Value: 4}}); err != nil {
		t.Fatal(err)
	}
	var ckpt bytes.Buffer
	if err := s.Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	if s.Pending() != 0 {
		t.Fatalf("%d events still pending after Save", s.Pending())
	}
	restored, err := dismastd.ResumeStream(bytes.NewReader(ckpt.Bytes()), opts)
	if err != nil {
		t.Fatal(err)
	}
	equalFactors(t, "flushed checkpoint", s.Factors(), restored.Factors())
}

// TestBulkIngestFlushesPendingEvents: a bulk snapshot arriving with
// events pending flushes them first — two boundaries, in order.
func TestBulkIngestFlushesPendingEvents(t *testing.T) {
	first, second := growingRatings(t)
	s := dismastd.NewStream(dismastd.Options{Rank: 2, MaxIters: 5, Seed: 3})
	if _, err := s.Ingest(first); err != nil {
		t.Fatal(err)
	}
	if _, err := s.IngestEvents([]dismastd.Event{{Coords: []int{5, 5, 3}, Value: 4}}); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Ingest(second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Snapshot != 2 {
		t.Fatalf("bulk step after pending flush has index %d, want 2", rep.Snapshot)
	}
	if s.Pending() != 0 {
		t.Fatalf("%d events pending after bulk ingest", s.Pending())
	}
}

func TestEventValidation(t *testing.T) {
	s := dismastd.NewStream(dismastd.Options{Rank: 2})
	cases := map[string][]dismastd.Event{
		"no coords":      {{Value: 1}},
		"negative coord": {{Coords: []int{0, -1, 0}, Value: 1}},
		"nan value":      {{Coords: []int{0, 0, 0}, Value: math.NaN()}},
		"mixed order":    {{Coords: []int{0, 0, 0}, Value: 1}, {Coords: []int{0, 0}, Value: 1}},
	}
	for name, events := range cases {
		if _, err := s.IngestEvents(events); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
	if _, err := s.Flush(); err == nil {
		t.Fatal("Flush before any data accepted")
	}
	first, _ := growingRatings(t)
	if _, err := s.Ingest(first); err != nil {
		t.Fatal(err)
	}
	if sr, err := s.Flush(); err != nil || sr != nil {
		t.Fatalf("empty flush: %v %v", sr, err)
	}
}

// TestEventGrowthCeiling: one event must not be able to size a factor.
// A coordinate beyond int32 (which storage would truncate) or growth of
// more than MaxBatchGrowth rows in one batch is refused with the typed
// error before anything is buffered or sized — the whole batch, valid
// events included — both while events still buffer toward the first
// decomposition and on a live model.
func TestEventGrowthCeiling(t *testing.T) {
	first, _ := growingRatings(t)
	i32 := math.MaxInt32 // a variable: the sums below are run-time ints
	for _, live := range []bool{false, true} {
		s := dismastd.NewStream(dismastd.Options{Rank: 2, MaxIters: 3, Seed: 3})
		size := 1 // mode 0 as the next batch finds it
		if live {
			if _, err := s.Ingest(first); err != nil {
				t.Fatal(err)
			}
			size = s.Dims()[0]
		}
		if _, err := s.IngestEvents([]dismastd.Event{{Coords: []int{0, 0, 0}, Value: 1}}); err != nil {
			t.Fatal(err)
		}
		dims, pending := append([]int(nil), s.Dims()...), s.Pending()
		var factors [][]float64
		for _, f := range s.Factors() {
			factors = append(factors, append([]float64(nil), f.Data...))
		}

		for _, tc := range []struct {
			name  string
			coord int
		}{
			{"2^31-1", i32},
			{"2^31", i32 + 1},
			{"2^32+5", 2*(i32+1) + 5},
			{"ceiling+1", size + dismastd.MaxBatchGrowth},
		} {
			batch := []dismastd.Event{{Coords: []int{1, 1, 1}, Value: 2}, {Coords: []int{tc.coord, 0, 0}, Value: 1}}
			if _, err := s.IngestEvents(batch); !errors.Is(err, dismastd.ErrGrowthTooLarge) {
				t.Fatalf("live=%v %s: error %v, want ErrGrowthTooLarge", live, tc.name, err)
			}
			if !reflect.DeepEqual(append([]int(nil), s.Dims()...), dims) || s.Pending() != pending {
				t.Fatalf("live=%v %s: refusal moved dims %v -> %v, pending %d -> %d", live, tc.name, dims, s.Dims(), pending, s.Pending())
			}
			for m, f := range s.Factors() {
				if !reflect.DeepEqual(f.Data, factors[m]) {
					t.Fatalf("live=%v %s: refusal changed factor %d", live, tc.name, m)
				}
			}
		}
		atCeiling := []dismastd.Event{{Coords: []int{size + dismastd.MaxBatchGrowth - 1, 0, 0}, Value: 1}}
		if err := s.CheckEvents(atCeiling); err != nil {
			t.Fatalf("live=%v: growth of exactly the ceiling refused: %v", live, err)
		}
		// Nothing of a refused batch reached the pre-init buffer's dims
		// either, which only the next report shows.
		rep, err := s.IngestEvents([]dismastd.Event{{Coords: []int{1, 1, 1}, Value: 2}})
		if err != nil {
			t.Fatal(err)
		}
		if !live {
			dims = []int{2, 2, 2}
		}
		if rep.Pending != pending+1 || !reflect.DeepEqual(rep.Dims, dims) {
			t.Fatalf("live=%v: after refusals pending %d (want %d), dims %v (want %v)", live, rep.Pending, pending+1, rep.Dims, dims)
		}
	}
}

// TestIngestEventsNoAllocSteadyState pins the acceptance criterion at
// the public API: a warmed stream absorbs a micro-batch with zero heap
// allocations (no growth, no sweep in the window).
func TestIngestEventsNoAllocSteadyState(t *testing.T) {
	first, _ := growingRatings(t)
	s := dismastd.NewStream(dismastd.Options{Rank: 2, MaxIters: 5, Seed: 3})
	if _, err := s.Ingest(first); err != nil {
		t.Fatal(err)
	}
	batch := []dismastd.Event{
		{Coords: []int{1, 2, 1}, Value: 1.5},
		{Coords: []int{4, 0, 2}, Value: -0.5},
	}
	for i := 0; i < 8; i++ { // warm delta capacity and workspace slots
		if _, err := s.IngestEvents(batch); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // re-warm post-reset path
		if _, err := s.IngestEvents(batch); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := s.IngestEvents(batch); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state IngestEvents allocates %v per run", allocs)
	}
}
