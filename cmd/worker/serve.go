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
// touch it. Every write publishes a read-only snapshot behind an atomic
// pointer — epoch-swapped, so any number of concurrent readers score
// against a consistent model while the next micro-batch lands. A
// snapshot holds each factor as an immutable spine of row blocks (see
// snapshot.go): the snapshot after an event batch shares every block
// with its predecessor except those holding a row the batch named, so
// publishing costs O(batch · R) plus a spine copy, not O(model); a write
// that ran a full sweep rebuilds every block. Queries cost what they
// ask for: /predict reads one row per mode, /topk scores the target
// mode once and heap-selects k rows instead of sorting all of them. On
// SIGTERM the listener stops accepting, in-flight requests drain,
// pending events are flushed, and the final checkpoint is written to
// -state before the process exits.
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
)

// serveConfig carries the parsed serve-mode flags.
type serveConfig struct {
	addr         string
	statePath    string // resumed at start if present, written on shutdown
	opts         dismastd.Options
	drainTimeout time.Duration

	ready chan<- net.Addr // tests: receives the bound address once listening
}

// factorSnapshot is one epoch's published read-only model, swapped in
// atomically after every write. Readers load the pointer once and score
// against a consistent model for the whole request. Its row blocks are
// shared with neighbouring epochs wherever the rows are equal and are
// never written once published; only the writer, under serveServer.mu,
// builds the next one.
type factorSnapshot struct {
	epoch   int64
	dims    []int
	factors []*blockFactor
	sweeps  int // full-sweep boundaries behind this model
	pending int // events awaiting the next sweep when published
}

// serveServer is the HTTP front end: a write-locked stream plus the
// epoch-swapped snapshot the read paths serve from.
type serveServer struct {
	mu     sync.Mutex // serializes stream writes (ingest, flush, save)
	stream *dismastd.Stream
	snap   atomic.Pointer[factorSnapshot]
	epoch  atomic.Int64
	// unpublished is set when a write failed after it may have changed
	// factor rows; the next publish then rebuilds every block. Guarded
	// by mu.
	unpublished bool

	events  atomic.Int64
	queries atomic.Int64
	log     *slog.Logger
}

func newServeServer(stream *dismastd.Stream, log *slog.Logger) *serveServer {
	s := &serveServer{stream: stream, log: log}
	s.publishLocked(nil, true) // a resumed stream has a model to serve immediately
	return s
}

// publishLocked swaps in the snapshot of the live factors that follows
// a write. batch is what the write applied since the previous publish:
// an IngestEvents call that did not sweep changes only the rows its own
// coordinates name (and appends growth rows), so only their blocks are
// copied and the rest are shared with the previous snapshot. swept
// marks a write that ran a full sweep, which moves every row: all
// blocks are rebuilt. Callers must hold s.mu. Before the first data it
// is a no-op — queries answer 503 until the first flush initialises the
// model.
func (s *serveServer) publishLocked(batch []dismastd.Event, swept bool) {
	factors := s.stream.Factors()
	if factors == nil {
		return
	}
	prev := s.snap.Load()
	if swept || s.unpublished {
		prev = nil
	}
	s.unpublished = false
	snap := &factorSnapshot{
		epoch:   s.epoch.Add(1),
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
		snap.factors[m], _ = publishFactor(old, f, batch, m)
	}
	s.snap.Store(snap)
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
		s.unpublished = true
		s.mu.Unlock()
		code := http.StatusBadRequest
		if errors.Is(err, dismastd.ErrGrowthTooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, err.Error(), code)
		return
	}
	s.publishLocked(events, rep.Sweep != nil)
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
		s.unpublished = true
		s.mu.Unlock()
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	s.publishLocked(nil, rep != nil)
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
	snap := s.snap.Load()
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
	results := selectTopK(snap.factors[mode], snap.topKWeights(mode, idx), k)
	s.queries.Add(1)
	writeJSON(w, map[string]any{"epoch": snap.epoch, "mode": mode, "results": results})
}

func (s *serveServer) handleStats(w http.ResponseWriter, r *http.Request) {
	out := map[string]any{
		"events":  s.events.Load(),
		"queries": s.queries.Load(),
		"epoch":   s.epoch.Load(),
	}
	if snap := s.snap.Load(); snap != nil {
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
