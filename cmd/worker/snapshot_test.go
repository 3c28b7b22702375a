package main

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"dismastd"
	"dismastd/internal/mat"
	"dismastd/internal/obs"
)

// snapshotOf publishes hand-built factors as a first snapshot.
func snapshotOf(factors ...*mat.Dense) *factorSnapshot {
	snap := &factorSnapshot{epoch: 1}
	for m, f := range factors {
		bf, _ := publishFactor(nil, f, nil, m)
		snap.factors = append(snap.factors, bf)
		snap.dims = append(snap.dims, f.Rows)
	}
	return snap
}

func quietServer(stream *dismastd.Stream) *serveServer {
	return newServeServer(stream, obs.NewLogger(io.Discard, slog.LevelError))
}

// topKOracle is /topk as it was before heap selection: score every row
// of the target mode into a target.Rows-long slice, sort all of it,
// cut to k. less is the order under test.
func topKOracle(factors []*mat.Dense, mode int, idx []int, k int, less func(a, b topKResult) bool) []topKResult {
	weights := make([]float64, factors[0].Cols)
	for c := range weights {
		weights[c] = 1
	}
	for m, f := range factors {
		if m == mode {
			continue
		}
		row := f.Row(idx[m])
		for c := range weights {
			weights[c] *= row[c]
		}
	}
	target := factors[mode]
	results := make([]topKResult, target.Rows)
	for i := 0; i < target.Rows; i++ {
		row := target.Row(i)
		score := 0.0
		for c, wc := range weights {
			score += wc * row[c]
		}
		results[i] = topKResult{Index: i, Score: score}
	}
	sort.Slice(results, func(a, b int) bool { return less(results[a], results[b]) })
	if k > len(results) {
		k = len(results)
	}
	return results[:k]
}

// sortSliceOrder is the comparator handleTopK passed to sort.Slice
// before: a strict total order as long as no score is NaN.
func sortSliceOrder(a, b topKResult) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Index < b.Index
}

type topKResponse struct {
	Results []topKResult `json:"results"`
}

// atQuery renders idx as an at= parameter.
func atQuery(idx []int) string {
	parts := make([]string, len(idx))
	for m, i := range idx {
		parts[m] = strconv.Itoa(i)
	}
	return strings.Join(parts, ",")
}

func sameResults(got, want []topKResult) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Index != want[i].Index || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return fmt.Errorf("result %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

// TestTopKMatchesFullSort is the licence for select-don't-sort: on
// random models built to tie heavily (a handful of distinct values,
// zeros of both signs, all-zero weight vectors), with every mode as the
// target and k below, at and beyond the row count, the /topk response
// is the full sort's — index for index, score bit for bit.
func TestTopKMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	values := []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 0.5, 2, 1e-3}
	for trial := 0; trial < 40; trial++ {
		rank := 1 + rng.Intn(4)
		dims := []int{1 + rng.Intn(300), 1 + rng.Intn(70), 1 + rng.Intn(5)}
		factors := make([]*mat.Dense, len(dims))
		for m, d := range dims {
			factors[m] = mat.New(d, rank)
			for i := range factors[m].Data {
				factors[m].Data[i] = values[rng.Intn(len(values))]
			}
		}
		if trial%4 == 0 { // a fixed row of zeros: every score ties at ±0
			for m := range factors {
				for c := range factors[m].Row(0) {
					factors[m].Row(0)[c] = 0
				}
			}
		}
		if trial%8 == 1 { // a dense random target: mostly distinct scores
			for i := range factors[0].Data {
				factors[0].Data[i] = rng.NormFloat64()
			}
		}
		srv := &serveServer{}
		srv.snap.Store(snapshotOf(factors...))
		for mode, rows := range dims {
			idx := make([]int, len(dims))
			if trial%4 != 0 {
				for m, d := range dims {
					idx[m] = rng.Intn(d)
				}
			}
			for _, k := range []int{1, 10, rows, rows + 5} {
				url := fmt.Sprintf("/topk?mode=%d&k=%d&at=%s", mode, k, atQuery(idx))
				rec := httptest.NewRecorder()
				srv.handleTopK(rec, httptest.NewRequest(http.MethodGet, url, nil))
				if rec.Code != http.StatusOK {
					t.Fatalf("trial %d %s: status %d: %s", trial, url, rec.Code, rec.Body)
				}
				var got topKResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
					t.Fatal(err)
				}
				want := topKOracle(factors, mode, idx, k, sortSliceOrder)
				if err := sameResults(got.Results, want); err != nil {
					t.Fatalf("trial %d dims %v rank %d %s: %v", trial, dims, rank, url, err)
				}
			}
		}
	}
}

// TestTopKClampsKBeforeSizing: k beyond the row count returns every row
// and sizes nothing by the requested k — /topk?k=2147483647 must not be
// a 32 GB allocation request.
func TestTopKClampsKBeforeSizing(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	live := mat.New(20, 4)
	for i := range live.Data {
		live.Data[i] = rng.NormFloat64()
	}
	target, _ := publishFactor(nil, live, nil, 0)
	weights := []float64{1, -2, 0.5, 3}
	all := selectTopK(target, weights, target.rows)
	huge := selectTopK(target, weights, math.MaxInt32)
	if err := sameResults(huge, all); err != nil {
		t.Fatalf("k=MaxInt32 differs from k=rows: %v", err)
	}
	if len(huge) != 20 || cap(huge) != 20 {
		t.Fatalf("k=MaxInt32 on 20 rows: len %d cap %d, want 20/20", len(huge), cap(huge))
	}
	atRows := testing.AllocsPerRun(20, func() { selectTopK(target, weights, target.rows) })
	atHuge := testing.AllocsPerRun(20, func() { selectTopK(target, weights, math.MaxInt32) })
	if atHuge != atRows {
		t.Fatalf("allocations: %v at k=MaxInt32 vs %v at k=rows", atHuge, atRows)
	}
}

// TestTopKAllocationsIndependentOfRows: the selection core allocates for
// the k rows it keeps, never for the rows it scores.
func TestTopKAllocationsIndependentOfRows(t *testing.T) {
	weights := []float64{1, 2, 3}
	allocs := func(rows int) float64 {
		rng := rand.New(rand.NewSource(int64(rows)))
		live := mat.New(rows, len(weights))
		for i := range live.Data {
			live.Data[i] = rng.Float64()
		}
		target, _ := publishFactor(nil, live, nil, 0)
		return testing.AllocsPerRun(10, func() { selectTopK(target, weights, 10) })
	}
	if small, big := allocs(600), allocs(60000); small != big {
		t.Fatalf("selectTopK allocates %v times over 600 rows, %v over 60000", small, big)
	}
}

// TestNonFiniteModelAnswers500: encoding/json refuses NaN and ±Inf; a
// model holding one must answer 500 with a message, not 200 with an
// empty body — and the top-K order must stay a strict total order so
// heap and full sort agree even then (NaN below every number).
func TestNonFiniteModelAnswers500(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	factors := []*mat.Dense{mat.New(150, 2), mat.New(3, 2)}
	for _, f := range factors {
		for i := range f.Data {
			f.Data[i] = float64(rng.Intn(5)) - 2
		}
	}
	factors[0].Row(70)[0] = math.NaN()
	factors[0].Row(5)[1] = math.Inf(1)
	copy(factors[1].Row(0), []float64{1, 1})
	copy(factors[1].Row(1), []float64{0, 0}) // Inf·0: a second way to NaN
	snap := snapshotOf(factors...)
	srv := &serveServer{}
	srv.snap.Store(snap)

	for _, at := range [][]int{{0, 0}, {0, 1}} {
		for _, k := range []int{1, 7, 150} {
			got := selectTopK(snap.factors[0], snap.topKWeights(0, at), k)
			want := topKOracle(factors, 0, at, k, ranksBefore)
			if err := sameResults(got, want); err != nil {
				t.Fatalf("at %v k %d: %v", at, k, err)
			}
		}
	}
	if best := selectTopK(snap.factors[0], snap.topKWeights(0, []int{0, 0}), 150); best[0].Index != 5 || best[149].Index != 70 {
		t.Fatalf("+Inf row must rank first and NaN row last, got first %+v last %+v", best[0], best[149])
	}

	for _, tc := range []struct {
		url  string
		want int
	}{
		{"/predict?at=70,0", http.StatusInternalServerError},
		{"/predict?at=5,0", http.StatusInternalServerError},
		{"/topk?mode=0&at=_,0&k=3", http.StatusInternalServerError}, // the +Inf row is in every top 3
		{"/predict?at=6,0", http.StatusOK},
		{"/topk?mode=1&at=6,_&k=3", http.StatusOK}, // finite rows only
	} {
		rec := httptest.NewRecorder()
		srv.mux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, tc.url, nil))
		if rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d", tc.url, rec.Code, tc.want)
		}
		if rec.Body.Len() == 0 {
			t.Errorf("%s: empty body", tc.url)
		}
		if tc.want == http.StatusOK && rec.Header().Get("Content-Length") != fmt.Sprint(rec.Body.Len()) {
			t.Errorf("%s: Content-Length %q for a %d-byte body", tc.url, rec.Header().Get("Content-Length"), rec.Body.Len())
		}
	}
}

// TestPublishCopiesOnlyTouchedBlocks is the write path's work guard at
// the serving benchmark's model size: a 16-event batch re-copies at
// most 16 blocks per mode however many rows the mode has, and one
// growth row adds only the tail block.
func TestPublishCopiesOnlyTouchedBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	dims := []int{60000, 20000, 200}
	batch := make([]dismastd.Event, 16)
	for e := range batch {
		batch[e].Coords = []int{rng.Intn(dims[0]), rng.Intn(dims[1]), rng.Intn(dims[2])}
	}
	for m, d := range dims {
		live := mat.New(d, 10)
		for i := range live.Data {
			live.Data[i] = float64(i)
		}
		prev, all := publishFactor(nil, live, nil, m)
		if want := (d + blockRows - 1) / blockRows; all != want {
			t.Fatalf("mode %d: first publish copied %d blocks, want %d", m, all, want)
		}
		for _, ev := range batch {
			live.Row(ev.Coords[m])[3]++
		}
		next, copied := publishFactor(prev, live, batch, m)
		if copied == 0 || copied > len(batch) {
			t.Fatalf("mode %d: a %d-event batch copied %d of %d blocks", m, len(batch), copied, all)
		}
		requireSnapshotOf(t, next, live)

		grown := mat.StackRows(live, mat.New(1, 10))
		_, copied = publishFactor(next, grown, []dismastd.Event{{Coords: []int{d, d, d}}}, m)
		if copied != 1 {
			t.Fatalf("mode %d: one appended row copied %d blocks, want 1", m, copied)
		}
	}
}

// requireSnapshotOf fails unless every row of snap is bitwise live's.
func requireSnapshotOf(t *testing.T, snap *blockFactor, live *mat.Dense) {
	t.Helper()
	if snap.rows != live.Rows || snap.cols != live.Cols {
		t.Fatalf("snapshot is %dx%d, live factor %dx%d", snap.rows, snap.cols, live.Rows, live.Cols)
	}
	for i := 0; i < live.Rows; i++ {
		for c, v := range live.Row(i) {
			if math.Float64bits(snap.row(i)[c]) != math.Float64bits(v) {
				t.Fatalf("row %d col %d: snapshot %v, live %v", i, c, snap.row(i)[c], v)
			}
		}
	}
}

// flatten copies a snapshot's rows out, for comparing it with itself
// later.
func flatten(snap *factorSnapshot) [][]float64 {
	out := make([][]float64, len(snap.factors))
	for m, f := range snap.factors {
		for _, blk := range f.blocks {
			out[m] = append(out[m], blk...)
		}
	}
	return out
}

// TestSnapshotsTrackLiveFactors is the model test behind copy-on-write
// publishing: over a seeded interleaving of /ingest (plain, growing one
// mode, growing every mode, crossing -sweep-every boundaries) and
// /flush, every published snapshot is bitwise the live factors, a
// snapshot is never written after publication, and a non-sweeping batch
// shares every block it does not name. /topk and /predict readers run
// throughout, so the race detector checks the sharing.
func TestSnapshotsTrackLiveFactors(t *testing.T) {
	opts := dismastd.Options{Rank: 3, MaxIters: 3, Seed: 5, SweepEvery: 120}
	srv := quietServer(dismastd.NewStream(opts))
	ts := httptest.NewServer(srv.mux())
	defer ts.Close()

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			urls := []string{"/topk?mode=0&at=_,1,1&k=7", "/predict?at=3,2,1", "/topk?mode=1&at=2,_,0&k=3"}
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(ts.URL + urls[i%len(urls)])
				if err != nil {
					t.Errorf("reader: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
					t.Errorf("reader: %s answered %d", urls[i%len(urls)], resp.StatusCode)
					return
				}
			}
		}(r)
	}
	defer func() {
		close(stop)
		readers.Wait()
	}()

	rng := rand.New(rand.NewSource(21))
	dims := []int{200, 70, 4}
	draw := func(n int) []eventJSON {
		batch := make([]eventJSON, n)
		for e := range batch {
			coords := make([]int, len(dims))
			for m, d := range dims {
				coords[m] = rng.Intn(d)
			}
			batch[e] = eventJSON{Coords: coords, Value: 1 + 4*rng.Float64()}
		}
		return batch
	}
	first := draw(300)
	first[0].Coords = []int{dims[0] - 1, dims[1] - 1, dims[2] - 1}
	postJSON(t, ts.URL+"/ingest", first, nil)
	postJSON(t, ts.URL+"/flush", nil, nil)

	var sweeps, flushes, growths, sharedBlocks int
	for step := 0; step < 160; step++ {
		old := srv.snap.Load()
		frozen := flatten(old)

		var batch []eventJSON
		swept := false
		if op := rng.Intn(10); op == 9 {
			var rep struct {
				Swept bool `json:"swept"`
			}
			if resp := postJSON(t, ts.URL+"/flush", nil, &rep); resp.StatusCode != http.StatusOK {
				t.Fatalf("step %d: flush status %d", step, resp.StatusCode)
			}
			swept = rep.Swept
			flushes++
		} else {
			batch = draw(1 + rng.Intn(8))
			switch op {
			case 7: // grow one mode by one or two rows
				m := rng.Intn(2)
				dims[m] += 1 + rng.Intn(2)
				batch[len(batch)-1].Coords[m] = dims[m] - 1
			case 8: // grow every mode
				for m := range dims {
					dims[m]++
					batch[0].Coords[m] = dims[m] - 1
				}
			}
			var rep ingestResponse
			if resp := postJSON(t, ts.URL+"/ingest", batch, &rep); resp.StatusCode != http.StatusOK {
				t.Fatalf("step %d: ingest status %d", step, resp.StatusCode)
			}
			swept = rep.Swept
			if rep.Grew {
				growths++
			}
		}
		if swept {
			sweeps++
		}

		srv.mu.Lock()
		snap := srv.snap.Load()
		live := srv.stream.Factors()
		if snap == old || snap.epoch != old.epoch+1 {
			t.Fatalf("step %d: write did not publish a new epoch", step)
		}
		if fmt.Sprint(snap.dims) != fmt.Sprint(srv.stream.Dims()) || fmt.Sprint(snap.dims) != fmt.Sprint(dims) {
			t.Fatalf("step %d: snapshot dims %v, stream %v, sent %v", step, snap.dims, srv.stream.Dims(), dims)
		}
		for m, f := range snap.factors {
			requireSnapshotOf(t, f, live[m])
		}
		srv.mu.Unlock()

		// The previous snapshot may share blocks with the new one, and a
		// reader may still be scoring against it: it must not have moved.
		for m, rows := range flatten(old) {
			for i, v := range rows {
				if math.Float64bits(v) != math.Float64bits(frozen[m][i]) {
					t.Fatalf("step %d: published snapshot (epoch %d) mode %d element %d written after publication", step, old.epoch, m, i)
				}
			}
		}
		for m, f := range snap.factors {
			named := map[int]bool{}
			for _, ev := range batch {
				named[ev.Coords[m]/blockRows] = true
			}
			for b := 0; b < old.factors[m].rows/blockRows; b++ {
				same := &f.blocks[b][0] == &old.factors[m].blocks[b][0]
				switch {
				case swept && same:
					t.Fatalf("step %d: mode %d block %d shared across a sweep", step, m, b)
				case !swept && !named[b] && !same:
					t.Fatalf("step %d: mode %d block %d copied though the batch does not name it", step, m, b)
				case same:
					sharedBlocks++
				}
			}
		}
	}
	if sweeps < 2 || flushes == 0 || growths < 5 || sharedBlocks == 0 {
		t.Fatalf("vacuous run: %d sweeps, %d flushes, %d growths, %d shared blocks", sweeps, flushes, growths, sharedBlocks)
	}
}
