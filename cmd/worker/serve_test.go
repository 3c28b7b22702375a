package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"dismastd"
)

// startServe boots runServe in-process with an injectable signal
// channel and returns the base URL, the signal channel, and a done
// channel carrying runServe's error.
func startServe(t *testing.T, cfg serveConfig) (string, chan os.Signal, chan error) {
	t.Helper()
	ready := make(chan net.Addr, 1)
	cfg.ready = ready
	if cfg.addr == "" {
		cfg.addr = "127.0.0.1:0"
	}
	if cfg.drainTimeout == 0 {
		cfg.drainTimeout = 10 * time.Second
	}
	sig := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- runServe(cfg, io.Discard, io.Discard, sig)
	}()
	select {
	case addr := <-ready:
		return "http://" + addr.String(), sig, done
	case err := <-done:
		t.Fatalf("serve exited before listening: %v", err)
		return "", nil, nil
	}
}

func postJSON(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

// serveEvents deterministically generates a dense-enough event stream
// over a small tensor.
func serveEvents(n int, seed int64) []eventJSON {
	rng := rand.New(rand.NewSource(seed))
	events := make([]eventJSON, n)
	for i := range events {
		events[i] = eventJSON{
			Coords: []int{rng.Intn(8), rng.Intn(6), rng.Intn(4)},
			Value:  1 + 4*rng.Float64(),
		}
	}
	// Corner entry pins the dims so the offline replica agrees exactly.
	events[0] = eventJSON{Coords: []int{7, 5, 3}, Value: 3}
	return events
}

func asEvents(raw []eventJSON) []dismastd.Event {
	out := make([]dismastd.Event, len(raw))
	for i, e := range raw {
		out[i] = dismastd.Event{Coords: e.Coords, Value: e.Value}
	}
	return out
}

// TestServeLifecycle drives the full front end: ingest batches, flush,
// predictions matching an offline stream fed the same events bitwise,
// top-K consistency with /predict, stats, graceful shutdown with a
// final checkpoint, and a resume that serves the model immediately.
func TestServeLifecycle(t *testing.T) {
	state := filepath.Join(t.TempDir(), "model.gob")
	opts := dismastd.Options{Rank: 3, MaxIters: 4, Seed: 5}
	base, sig, done := startServe(t, serveConfig{statePath: state, opts: opts})

	// Before any data, queries answer 503.
	if code := getJSON(t, base+"/predict?at=0,0,0", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("pre-init predict status %d, want 503", code)
	}

	events := serveEvents(240, 11)
	offline := dismastd.NewStream(opts)
	for i := 0; i < len(events); i += 60 {
		batch := events[i : i+60]
		var rep ingestResponse
		if resp := postJSON(t, base+"/ingest", batch, &rep); resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest status %d", resp.StatusCode)
		}
		if rep.Events != 60 {
			t.Fatalf("ingest reported %d events, want 60", rep.Events)
		}
		if _, err := offline.IngestEvents(asEvents(batch)); err != nil {
			t.Fatal(err)
		}
	}
	var flushRep map[string]any
	if resp := postJSON(t, base+"/flush", nil, &flushRep); resp.StatusCode != http.StatusOK {
		t.Fatalf("flush status %d", resp.StatusCode)
	}
	if swept, _ := flushRep["swept"].(bool); !swept {
		t.Fatalf("flush did not sweep: %v", flushRep)
	}
	if _, err := offline.Flush(); err != nil {
		t.Fatal(err)
	}

	// Served predictions must match the offline replica bitwise: both
	// streams saw the identical event sequence and boundary.
	for _, at := range [][]int{{0, 0, 0}, {7, 5, 3}, {3, 2, 1}} {
		var pred struct {
			Value float64 `json:"value"`
		}
		url := fmt.Sprintf("%s/predict?at=%d,%d,%d", base, at[0], at[1], at[2])
		if code := getJSON(t, url, &pred); code != http.StatusOK {
			t.Fatalf("predict status %d", code)
		}
		if want := offline.Predict(at); pred.Value != want {
			t.Fatalf("predict%v = %v, offline replica says %v", at, pred.Value, want)
		}
	}

	// Top-K over mode 1 at (3, _, 1): the best index must be the argmax
	// of per-index predictions, scores in non-increasing order.
	var topk struct {
		Results []topKResult `json:"results"`
	}
	if code := getJSON(t, base+"/topk?mode=1&at=3,_,1&k=4", &topk); code != http.StatusOK {
		t.Fatalf("topk status %d", code)
	}
	if len(topk.Results) != 4 {
		t.Fatalf("topk returned %d results, want 4", len(topk.Results))
	}
	bestIdx, bestScore := -1, 0.0
	for j := 0; j < offline.Dims()[1]; j++ {
		if v := offline.Predict([]int{3, j, 1}); bestIdx < 0 || v > bestScore {
			bestIdx, bestScore = j, v
		}
	}
	if topk.Results[0].Index != bestIdx || topk.Results[0].Score != bestScore {
		t.Fatalf("topk best = %+v, offline argmax is (%d, %v)", topk.Results[0], bestIdx, bestScore)
	}
	for i := 1; i < len(topk.Results); i++ {
		if topk.Results[i].Score > topk.Results[i-1].Score {
			t.Fatalf("topk scores not sorted: %+v", topk.Results)
		}
	}

	var stats struct {
		Events  int64 `json:"events"`
		Queries int64 `json:"queries"`
		Sweeps  int   `json:"sweeps"`
		Dims    []int `json:"dims"`
	}
	if code := getJSON(t, base+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	if stats.Events != 240 || stats.Sweeps != 1 || stats.Queries == 0 {
		t.Fatalf("stats = %+v, want 240 events, 1 sweep, some queries", stats)
	}

	sig <- syscall.SIGTERM
	if err := <-done; err != nil {
		t.Fatalf("serve shutdown: %v", err)
	}
	if _, err := os.Stat(state); err != nil {
		t.Fatalf("no final checkpoint: %v", err)
	}

	// Resume from the checkpoint: the model serves immediately and
	// matches the offline replica, and the sweep counter carries over.
	base2, sig2, done2 := startServe(t, serveConfig{statePath: state, opts: opts})
	var pred struct {
		Value float64 `json:"value"`
	}
	if code := getJSON(t, base2+"/predict?at=7,5,3", &pred); code != http.StatusOK {
		t.Fatalf("resumed predict status %d", code)
	}
	if want := offline.Predict([]int{7, 5, 3}); pred.Value != want {
		t.Fatalf("resumed predict = %v, want %v", pred.Value, want)
	}
	var stats2 struct {
		Sweeps int `json:"sweeps"`
	}
	getJSON(t, base2+"/stats", &stats2)
	if stats2.Sweeps != 1 {
		t.Fatalf("resumed sweeps = %d, want 1", stats2.Sweeps)
	}
	sig2 <- syscall.SIGTERM
	if err := <-done2; err != nil {
		t.Fatalf("resumed serve shutdown: %v", err)
	}
}

// TestServeQueryErrors covers the request-validation paths.
func TestServeQueryErrors(t *testing.T) {
	opts := dismastd.Options{Rank: 2, MaxIters: 2, Seed: 1}
	base, sig, done := startServe(t, serveConfig{opts: opts})
	defer func() {
		sig <- syscall.SIGTERM
		<-done
	}()
	postJSON(t, base+"/ingest", serveEvents(40, 3), nil)
	postJSON(t, base+"/flush", nil, nil)

	for _, tc := range []struct {
		url  string
		want int
	}{
		{"/predict?at=1,2", http.StatusBadRequest},       // wrong order
		{"/predict?at=99,0,0", http.StatusBadRequest},    // out of range
		{"/predict?at=a,0,0", http.StatusBadRequest},     // not a number
		{"/topk?mode=7&at=0,_,0", http.StatusBadRequest}, // bad mode
		{"/topk?mode=1&at=0,_,0&k=0", http.StatusBadRequest},
		{"/topk?mode=1&at=0,_,0&k=-3", http.StatusBadRequest},
		{"/topk?mode=1&at=0,_,0&k=2.5", http.StatusBadRequest},
		{"/topk?mode=1&at=0,_,0&k=2147483647", http.StatusOK}, // clamped to the mode's rows
		{"/predict?at=0,0,0", http.StatusOK},
	} {
		if code := getJSON(t, base+tc.url, nil); code != tc.want {
			t.Errorf("%s status %d, want %d", tc.url, code, tc.want)
		}
	}
	if resp := postJSON(t, base+"/ingest", []eventJSON{}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty ingest status %d, want 400", resp.StatusCode)
	}
	if resp := postJSON(t, base+"/ingest", []eventJSON{{Coords: []int{1}, Value: 2}}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("order-changing ingest status %d, want 400", resp.StatusCode)
	}

	// One event asking for a two-billion-row factor is refused whole.
	var before, after struct {
		Dims []int `json:"dims"`
	}
	getJSON(t, base+"/stats", &before)
	if resp := postJSON(t, base+"/ingest", []eventJSON{{Coords: []int{math.MaxInt32, 0, 0}, Value: 2}}, nil); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized-growth ingest status %d, want 413", resp.StatusCode)
	}
	getJSON(t, base+"/stats", &after)
	if len(before.Dims) != 3 || !reflect.DeepEqual(before.Dims, after.Dims) {
		t.Errorf("/stats dims %v -> %v across a refused ingest", before.Dims, after.Dims)
	}
}

// TestServeGracefulShutdown exercises S6 under load: concurrent
// readers and writers hammer the server while SIGTERM lands. Every
// in-flight request must complete or be refused cleanly (no 5xx from a
// live handler), the listener must be closed afterwards, and the final
// checkpoint must be a resumable model that reflects the ingested
// events.
func TestServeGracefulShutdown(t *testing.T) {
	state := filepath.Join(t.TempDir(), "model.gob")
	opts := dismastd.Options{Rank: 2, MaxIters: 2, Seed: 7, SweepEvery: 64}
	base, sig, done := startServe(t, serveConfig{statePath: state, opts: opts})

	postJSON(t, base+"/ingest", serveEvents(80, 5), nil) // SweepEvery fires: model exists

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(base + "/predict?at=0,0,0")
				if err != nil {
					return // listener closed mid-drain: a clean refusal
				}
				if resp.StatusCode >= 500 {
					t.Errorf("query got %d during shutdown", resp.StatusCode)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(i)
	}
	time.Sleep(20 * time.Millisecond) // let the readers get in flight
	sig <- syscall.SIGTERM
	if err := <-done; err != nil {
		t.Fatalf("serve shutdown: %v", err)
	}
	close(stop)
	wg.Wait()

	if _, err := http.Get(base + "/stats"); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
	f, err := os.Open(state)
	if err != nil {
		t.Fatalf("no final checkpoint: %v", err)
	}
	defer f.Close()
	resumed, err := dismastd.ResumeStream(f, opts)
	if err != nil {
		t.Fatalf("final checkpoint not resumable: %v", err)
	}
	if resumed.Snapshots() == 0 || resumed.Factors() == nil {
		t.Fatalf("resumed checkpoint empty: %d sweeps", resumed.Snapshots())
	}
}

// TestServeArgErrors checks the flag-level mode validation.
func TestServeArgErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-serve-http", "127.0.0.1:0", "-join", "127.0.0.1:9"},
		{"-serve-http", "127.0.0.1:0", "-serve", "127.0.0.1:9"},
	} {
		var errBuf bytes.Buffer
		if err := run(args, io.Discard, &errBuf); err == nil || !strings.Contains(err.Error(), "exclusive") {
			t.Errorf("run(%v) err = %v, want exclusivity error", args, err)
		}
	}
}
