// Serve mode: a single-process online front end over the streaming
// decomposer. Instead of reading snapshot files, the worker listens
// for events over HTTP and answers reconstruction and top-K queries
// from the live factors:
//
//	worker -serve-http 127.0.0.1:8080 -rank 8 -sweep-every 4096 -state model.gob
//
//	curl -X POST -d '[{"coords":[3,7,1],"value":4.5}]' http://127.0.0.1:8080/ingest
//	curl 'http://127.0.0.1:8080/predict?at=3,7,1'
//	curl 'http://127.0.0.1:8080/topk?mode=1&at=3,_,1&k=5'
//	curl 'http://127.0.0.1:8080/stats'
//
// Writes (ingest, flush) are serialized on the stream; queries never
// touch it. Reads score a read-only snapshot behind an atomic pointer —
// epoch-swapped, so any number of concurrent readers score against a
// consistent model while the next micro-batch lands. A snapshot is
// published when someone reads it: a write publishes at once only if a
// reader has loaded the current snapshot since it was published, and
// otherwise records which row blocks it changed, so writes nobody reads
// copy nothing; the first read that finds unpublished writes publishes
// them all under the writer lock. A snapshot holds each factor as an
// immutable spine of row blocks (see snapshot.go): it shares every
// block with its predecessor except those holding a row a write since
// named, so publishing costs O(changed blocks · R) plus a spine copy,
// not O(model); after a full sweep it rebuilds every block. Queries
// cost what they ask for: /predict reads one row per mode; /topk
// heap-selects k rows of the target mode instead of sorting all of
// them, and once it holds k rows it skips every row block whose norm
// bound (each published block carries one) shows that none of its rows
// can beat the k-th. Its answer is the full scan's bit for bit, and it
// costs the full scan's O(I·R + I log k) only in the worst case: when
// the k-th score is ≤ 0, or no block's rows are short enough. On
// SIGTERM the listener stops accepting, in-flight requests drain,
// pending events are flushed, and the final checkpoint is
// written to -state before the process exits.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dismastd"
	"dismastd/internal/obs"
	obscluster "dismastd/internal/obs/cluster"
)

// serveConfig carries the parsed serve-mode flags.
type serveConfig struct {
	addr         string
	statePath    string // resumed at start if present, written on shutdown
	opts         dismastd.Options
	drainTimeout time.Duration
	debugAddr    string // serves the process's /metrics and /debug/ endpoints; empty = off

	ready chan<- net.Addr // tests: receives the bound address once listening
}

// factorSnapshot is one epoch's published read-only model, swapped in
// atomically. Readers load the pointer once and score against a
// consistent model for the whole request. Its row blocks are shared
// with neighbouring epochs wherever the rows are equal and are never
// written once published; only a holder of serveServer.mu builds the
// next one.
type factorSnapshot struct {
	epoch   int64 // the last write it includes
	dims    []int
	factors []*blockFactor
	sweeps  int // full-sweep boundaries behind this model
	pending int // events awaiting the next sweep when published

	read atomic.Bool // a reader has loaded it: the next write publishes at once
}

// serveServer is the HTTP front end: a write-locked stream plus the
// epoch-swapped snapshot the read paths serve from.
type serveServer struct {
	mu     sync.Mutex // serializes stream writes (ingest, flush, save) and publishes
	stream *dismastd.Stream
	snap   atomic.Pointer[factorSnapshot]
	// epoch numbers the writes that changed the model: a snapshot of
	// epoch e holds every write up to e. Only a holder of mu stores it,
	// and a write that publishes stores its snapshot first.
	epoch atomic.Int64
	// dirty records what the writes since the last publish changed; a
	// write that failed after it may have changed factor rows marks
	// everything. Guarded by mu.
	dirty dirtyBlocks

	events  atomic.Int64
	queries atomic.Int64
	log     *slog.Logger
}

func newServeServer(stream *dismastd.Stream, log *slog.Logger) *serveServer {
	s := &serveServer{stream: stream, log: log}
	s.wroteLocked(nil, true) // a resumed stream has a model to serve immediately
	return s
}

// wroteLocked records a write that changed the model. batch is what an
// IngestEvents call that did not sweep applied: it changes only the
// rows its own coordinates name (and appends growth rows), so only
// their blocks are marked. swept marks a write that ran a full sweep,
// which moves every row. The write publishes at once if a reader has
// loaded the current snapshot — readers then stay lock-free, also while
// the next sweep holds the lock — and otherwise only advances the epoch,
// leaving the publish to the first read that wants it. Callers must
// hold s.mu. Before the first data it is a no-op — queries answer 503
// until the first flush initialises the model.
func (s *serveServer) wroteLocked(batch []dismastd.Event, swept bool) {
	if s.stream.Factors() == nil {
		return
	}
	if swept {
		s.dirty.all = true
	} else {
		s.dirty.mark(batch, s.stream.Dims())
	}
	if cur := s.snap.Load(); cur != nil && cur.read.Load() {
		s.publishLocked(s.epoch.Load() + 1)
		return
	}
	s.epoch.Add(1)
}

// publishLocked swaps in the snapshot of the live factors at epoch,
// copying only the blocks the writes since the previous publish marked
// and sharing the rest with it, then advances s.epoch to epoch.
// Callers must hold s.mu.
func (s *serveServer) publishLocked(epoch int64) {
	factors := s.stream.Factors()
	prev := s.snap.Load()
	if s.dirty.all {
		prev = nil
	}
	snap := &factorSnapshot{
		epoch:   epoch,
		dims:    append([]int(nil), s.stream.Dims()...),
		factors: make([]*blockFactor, len(factors)),
		sweeps:  s.stream.Snapshots(),
		pending: s.stream.Pending(),
	}
	for m, f := range factors {
		var old *blockFactor
		if prev != nil {
			old = prev.factors[m]
		}
		snap.factors[m], _ = publishFactor(old, f, s.dirty.mode(m))
	}
	s.dirty.reset()
	s.snap.Store(snap)
	s.epoch.Store(epoch)
}

// current returns the snapshot a read answers from, nil before the
// first model: one that holds every write whose response has returned.
// A read that finds writes unpublished takes the writer lock and
// publishes them all. The epoch is loaded before the snapshot, so a
// snapshot that is not stale against it holds every write acknowledged
// by then.
func (s *serveServer) current() *factorSnapshot {
	epoch := s.epoch.Load()
	snap := s.snap.Load()
	if epoch > 0 && (snap == nil || snap.epoch < epoch) {
		s.mu.Lock()
		if snap = s.snap.Load(); snap == nil || snap.epoch < s.epoch.Load() {
			s.publishLocked(s.epoch.Load())
			snap = s.snap.Load()
		}
		s.mu.Unlock()
	}
	if snap != nil && !snap.read.Load() {
		snap.read.Store(true)
	}
	return snap
}

func (s *serveServer) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", s.handleIngest)
	mux.HandleFunc("/flush", s.handleFlush)
	mux.HandleFunc("/predict", s.handlePredict)
	mux.HandleFunc("/topk", s.handleTopK)
	mux.HandleFunc("/stats", s.handleStats)
	return mux
}

// ingestResponse reports what one /ingest call did.
type ingestResponse struct {
	Events      int     `json:"events"`
	RowsUpdated int64   `json:"rows_updated"`
	Pending     int     `json:"pending"`
	Grew        bool    `json:"grew"`
	Dims        []int   `json:"dims"`
	Swept       bool    `json:"swept"`
	Loss        float64 `json:"loss,omitempty"` // set when this call swept
	Epoch       int64   `json:"epoch"`
}

func (s *serveServer) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	body, err := readBody(w, r)
	if err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "read body: "+err.Error(), code)
		return
	}
	events, err := decodeEvents(body)
	if err != nil {
		http.Error(w, "body must be a JSON array of {coords, value}: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(events) == 0 {
		http.Error(w, "empty batch", http.StatusBadRequest)
		return
	}
	s.mu.Lock()
	rep, err := s.stream.IngestEvents(events)
	if err != nil {
		s.dirty.all = true
		s.mu.Unlock()
		code := http.StatusBadRequest
		if errors.Is(err, dismastd.ErrGrowthTooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), code)
		return
	}
	s.wroteLocked(events, rep.Sweep != nil)
	resp := ingestResponse{
		Events:      rep.Events,
		RowsUpdated: rep.RowsUpdated,
		Pending:     rep.Pending,
		Grew:        rep.Grew,
		Dims:        append([]int(nil), rep.Dims...), // rep.Dims is reused by the stream
		Swept:       rep.Sweep != nil,
		Epoch:       s.epoch.Load(),
	}
	if rep.Sweep != nil {
		resp.Loss = rep.Sweep.Loss
	}
	s.mu.Unlock()
	s.events.Add(int64(resp.Events))
	writeJSON(w, resp)
}

func (s *serveServer) handleFlush(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	s.mu.Lock()
	rep, err := s.stream.Flush()
	if err != nil {
		s.dirty.all = true
		s.mu.Unlock()
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	if rep != nil {
		s.wroteLocked(nil, true)
	}
	epoch := s.epoch.Load()
	s.mu.Unlock()
	out := map[string]any{"swept": rep != nil, "epoch": epoch}
	if rep != nil {
		out["loss"] = rep.Loss
		out["iters"] = rep.Iters
	}
	writeJSON(w, out)
}

// loadSnapshot answers 503 until the first model exists.
func (s *serveServer) loadSnapshot(w http.ResponseWriter) *factorSnapshot {
	snap := s.current()
	if snap == nil {
		http.Error(w, "no model yet: ingest events and flush first", http.StatusServiceUnavailable)
	}
	return snap
}

// parseAt parses "i,j,k" against the snapshot dims. A coordinate may be
// "_" (wildcard) only at the position in skip (pass -1 for none).
func parseAt(q string, dims []int, skip int) ([]int, error) {
	parts := strings.Split(q, ",")
	if len(parts) != len(dims) {
		return nil, fmt.Errorf("at=%q has %d coordinates, model order is %d", q, len(parts), len(dims))
	}
	idx := make([]int, len(parts))
	for m, p := range parts {
		if m == skip {
			idx[m] = 0
			continue
		}
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v >= dims[m] {
			return nil, fmt.Errorf("coordinate %d: %q out of range [0, %d)", m, p, dims[m])
		}
		idx[m] = v
	}
	return idx, nil
}

func (s *serveServer) handlePredict(w http.ResponseWriter, r *http.Request) {
	snap := s.loadSnapshot(w)
	if snap == nil {
		return
	}
	idx, err := parseAt(r.URL.Query().Get("at"), snap.dims, -1)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.queries.Add(1)
	writeJSON(w, map[string]any{"epoch": snap.epoch, "at": idx, "value": snap.predict(idx)})
}

func (s *serveServer) handleTopK(w http.ResponseWriter, r *http.Request) {
	snap := s.loadSnapshot(w)
	if snap == nil {
		return
	}
	q := r.URL.Query()
	mode, err := strconv.Atoi(q.Get("mode"))
	if err != nil || mode < 0 || mode >= len(snap.dims) {
		http.Error(w, fmt.Sprintf("mode=%q out of range [0, %d)", q.Get("mode"), len(snap.dims)), http.StatusBadRequest)
		return
	}
	k := 10
	if ks := q.Get("k"); ks != "" {
		if k, err = strconv.Atoi(ks); err != nil || k <= 0 {
			http.Error(w, "k must be a positive integer", http.StatusBadRequest)
			return
		}
	}
	idx, err := parseAt(q.Get("at"), snap.dims, mode)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	results, _ := selectTopK(snap.factors[mode], snap.topKWeights(mode, idx), k)
	s.queries.Add(1)
	writeJSON(w, map[string]any{"epoch": snap.epoch, "mode": mode, "results": results})
}

func (s *serveServer) handleStats(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{
		"events":  s.events.Load(),
		"queries": s.queries.Load(),
		"epoch":   s.epoch.Load(),
	}
	if snap := s.current(); snap != nil {
		out["dims"] = snap.dims
		out["sweeps"] = snap.sweeps
		out["pending"] = snap.pending
	}
	writeJSON(w, out)
}

// writeJSON encodes v before it commits to a status: encoding/json
// refuses NaN and ±Inf, and a model that holds one must answer 500, not
// 200 with an empty body.
func writeJSON(w http.ResponseWriter, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		http.Error(w, "response not encodable: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.Write(buf.Bytes())
}

// runServe runs the serving front end until sig delivers a shutdown
// signal, then drains and checkpoints. The injectable channel is what
// makes graceful shutdown testable in-process.
func runServe(cfg serveConfig, stdout, stderr io.Writer, sig <-chan os.Signal) error {
	logger := obs.NewLogger(stderr, slog.LevelInfo)
	stream := dismastd.NewStream(cfg.opts)
	// A stream resolves its options at the first call that needs them;
	// an empty event batch is such a call and changes nothing, so bad
	// options are refused here, before the listener comes up.
	if _, err := stream.IngestEvents(nil); err != nil {
		return err
	}
	if cfg.statePath != "" {
		f, err := os.Open(cfg.statePath)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			// Fresh start; the path is written on shutdown.
		case err != nil:
			return fmt.Errorf("open state: %w", err)
		default:
			stream, err = dismastd.ResumeStream(f, cfg.opts)
			f.Close()
			if err != nil {
				return fmt.Errorf("resume %s: %w", cfg.statePath, err)
			}
			logger.Info("resumed model", "path", cfg.statePath, "dims", fmt.Sprint(stream.Dims()), "sweeps", stream.Snapshots())
		}
	}
	if cfg.debugAddr != "" {
		// Serve mode has no cluster, so no plane: the endpoints show the
		// process's runtime and its profiles.
		dbg, addr, err := startDebugServer(cfg.debugAddr, obs.New(), func() *obscluster.Plane { return nil })
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		defer dbg.Close()
		logger.Info("debug endpoints serving", "addr", addr.String())
	}
	srv := newServeServer(stream, logger)
	httpSrv, addr, err := startHTTPServer(cfg.addr, srv.mux())
	if err != nil {
		return fmt.Errorf("serve listener: %w", err)
	}
	fmt.Fprintf(stdout, "serving on %s\n", addr)
	logger.Info("serving", "addr", addr.String())
	if cfg.ready != nil {
		cfg.ready <- addr
	}

	<-sig
	logger.Info("shutdown: draining in-flight requests")
	ctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		// Drain overran the timeout; the final checkpoint still runs.
		logger.Warn("drain incomplete", "err", err)
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	if cfg.statePath != "" && (stream.Factors() != nil || stream.Pending() > 0) {
		// Save flushes pending events first, so the file always sits on a
		// sweep boundary.
		if err := writeFileDurably(cfg.statePath, stream.Save); err != nil {
			return fmt.Errorf("final checkpoint: %w", err)
		}
		logger.Info("final checkpoint written", "path", cfg.statePath, "sweeps", stream.Snapshots())
	}
	logger.Info("serve shut down", "events", srv.events.Load(), "queries", srv.queries.Load())
	return nil
}
