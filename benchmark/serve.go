package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"dismastd"
	"dismastd/internal/cp"
	"dismastd/internal/dtd"
	"dismastd/internal/xrand"
)

// The serving workloads drive `worker -serve-http` as a subprocess over
// loopback HTTP with exactly two client connections — one writer, one
// reader — and check its answers against an in-process replica fed the
// identical batch sequence.

// ---- the server subprocess -------------------------------------------

type serverProc struct {
	cmd  *exec.Cmd
	base string
	dir  string
}

// live tracks running servers and their temp dirs so an interrupt can
// take them down too.
var live struct {
	sync.Mutex
	procs map[*serverProc]struct{}
}

func killLiveServers() {
	live.Lock()
	defer live.Unlock()
	for s := range live.procs {
		s.cmd.Process.Kill()
		s.cmd.Wait()
		os.RemoveAll(s.dir)
	}
	live.procs = nil
}

// startServer launches the worker's serving front end on an ephemeral
// loopback port inside its own temp dir under the output directory.
func startServer(cfg config, args ...string) (*serverProc, error) {
	dir, err := os.MkdirTemp(cfg.outDir, "serve-")
	if err != nil {
		return nil, err
	}
	bin, err := filepath.Abs(cfg.workerBin)
	if err != nil {
		return nil, err
	}
	full := append([]string{"-serve-http", "127.0.0.1:0", "-rank", strconv.Itoa(rank),
		"-sweep-every", strconv.Itoa(cfg.sweepEvery())}, args...)
	cmd := exec.Command(bin, full...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOMAXPROCS=2")
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &serverProc{cmd: cmd, dir: dir}
	live.Lock()
	if live.procs == nil {
		live.procs = map[*serverProc]struct{}{}
	}
	live.procs[s] = struct{}{}
	live.Unlock()

	line := make(chan string, 1)
	go func() {
		l, _ := bufio.NewReader(stdout).ReadString('\n')
		line <- l
		io.Copy(io.Discard, stdout)
	}()
	select {
	case l := <-line:
		addr, ok := strings.CutPrefix(strings.TrimSpace(l), "serving on ")
		if !ok {
			s.stop()
			return nil, fmt.Errorf("worker did not announce its address, printed %q", l)
		}
		s.base = "http://" + addr
	case <-time.After(20 * time.Second):
		s.stop()
		return nil, fmt.Errorf("worker did not start listening within 20s")
	}
	return s, nil
}

// stop ends the server — graceful first, then by force — waits for it
// and removes its temp dir.
func (s *serverProc) stop() {
	live.Lock()
	_, running := live.procs[s]
	delete(live.procs, s)
	live.Unlock()
	if !running {
		return
	}
	s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() { s.cmd.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		s.cmd.Process.Kill()
		<-done
	}
	os.RemoveAll(s.dir)
}

// ---- the HTTP client --------------------------------------------------

// client is one keep-alive connection to the server.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

func (c *client) do(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(b)))
	}
	return b, nil
}

type eventJSON struct {
	Coords []int   `json:"coords"`
	Value  float64 `json:"value"`
}

type ingestReply struct {
	Events int  `json:"events"`
	Swept  bool `json:"swept"`
	Grew   bool `json:"grew"`
}

func encodeBatch(batch []dismastd.Event) []byte {
	raw := make([]eventJSON, len(batch))
	for i, ev := range batch {
		raw[i] = eventJSON{ev.Coords, ev.Value}
	}
	b, err := json.Marshal(raw)
	if err != nil {
		panic(err)
	}
	return b
}

func (c *client) ingest(batch []dismastd.Event) (ingestReply, error) {
	var rep ingestReply
	b, err := c.do(http.MethodPost, "/ingest", encodeBatch(batch))
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return rep, err
	}
	if rep.Events != len(batch) {
		return rep, fmt.Errorf("/ingest acknowledged %d of %d events", rep.Events, len(batch))
	}
	return rep, nil
}

func (c *client) predict(coords []int) (float64, error) {
	b, err := c.do(http.MethodGet, predictPath(coords), nil)
	if err != nil {
		return 0, err
	}
	var rep struct {
		Value float64 `json:"value"`
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		return 0, err
	}
	return rep.Value, nil
}

func atParam(coords []int, wildcard int) string {
	parts := make([]string, len(coords))
	for m, c := range coords {
		if m == wildcard {
			parts[m] = "_"
		} else {
			parts[m] = strconv.Itoa(c)
		}
	}
	return strings.Join(parts, ",")
}

func predictPath(coords []int) string { return "/predict?at=" + atParam(coords, -1) }

func topkPath(mode int) func([]int) string {
	return func(coords []int) string {
		return "/topk?mode=" + strconv.Itoa(mode) + "&k=10&at=" + atParam(coords, mode)
	}
}

// ---- traffic ----------------------------------------------------------

// logOp is one write the server acknowledged, in order: the replica
// replays exactly this sequence.
type logOp struct {
	flush bool
	batch []dismastd.Event
}

type reqSample struct {
	kind       string
	start, end int64 // ns since the traffic epoch, as sent and as answered
	ms         float64
	swept      bool
	grew       bool
	failed     bool
}

// readOp is one kind of query the reader issues.
type readOp struct {
	name string
	path func(coords []int) string
}

// traffic is the load one measured window applies: a single writer
// and a single reader, each either closed loop (rate 0: the next
// request leaves when the previous one returned) or paced on a fixed
// schedule that does not slow when the server does.
type traffic struct {
	base       string
	gen        *eventGen
	log        *[]logOp
	queries    []dismastd.Event // coordinates already ingested, for reads
	seed       uint64
	batchSize  int
	growEvery  int // one batch in growEvery ends with a growth event
	writerRate float64
	readerRate float64
	readOps    []readOp
	batches    int // running batch counter across windows
}

// pace runs send until the deadline, closed loop or on schedule, and
// returns how late the schedule ran at worst.
func pace(start time.Time, dur time.Duration, rate float64, send func(due time.Time)) (lateMaxMS float64) {
	deadline := start.Add(dur)
	if rate <= 0 {
		for now := time.Now(); now.Before(deadline); now = time.Now() {
			send(now)
		}
		return 0
	}
	interval := time.Duration(float64(time.Second) / rate)
	for due := start; due.Before(deadline); due = due.Add(interval) {
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		lateMaxMS = max(lateMaxMS, ms(time.Since(due)))
		send(due)
	}
	return lateMaxMS
}

// run applies the traffic for dur and returns the writer's and the
// reader's samples. A paced request is timed from when it was due.
func (t *traffic) run(rec *recorder, dur time.Duration) (writes, reads []reqSample, lateMaxMS float64) {
	wrec, rrec := rec.fork(), rec.fork()
	start := time.Now()
	var wg sync.WaitGroup
	var wLate, rLate float64
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := newClient(t.base)
		defer c.close()
		wLate = pace(start, dur, t.writerRate, func(due time.Time) {
			batch := t.gen.batch(t.batchSize, t.batches%t.growEvery == 0)
			t.batches++
			id := wrec.begin("POST /ingest")
			rep, err := c.ingest(batch)
			end := time.Now()
			wrec.end(id)
			s := reqSample{kind: "ingest", start: due.Sub(start).Nanoseconds(), end: end.Sub(start).Nanoseconds(),
				ms: ms(end.Sub(due)), swept: rep.Swept, grew: rep.Grew, failed: err != nil}
			if s.swept || s.grew {
				wrec.tag(id, tagsOf(s))
			}
			writes = append(writes, s)
			if err == nil {
				*t.log = append(*t.log, logOp{batch: batch})
			}
		})
	}()
	go func() {
		defer wg.Done()
		c := newClient(t.base)
		defer c.close()
		src := xrand.New(xrand.Derive(t.seed, 0x7ead))
		n := 0
		rLate = pace(start, dur, t.readerRate, func(due time.Time) {
			op := t.readOps[n%len(t.readOps)]
			n++
			q := t.queries[src.Intn(len(t.queries))]
			id := rrec.begin("GET /" + op.name)
			_, err := c.do(http.MethodGet, op.path(q.Coords), nil)
			end := time.Now()
			rrec.end(id)
			reads = append(reads, reqSample{kind: op.name, start: due.Sub(start).Nanoseconds(), end: end.Sub(start).Nanoseconds(),
				ms: ms(end.Sub(due)), failed: err != nil})
		})
	}()
	wg.Wait()
	rec.join(wrec)
	rec.join(rrec)
	return writes, reads, max(wLate, rLate)
}

func tagsOf(s reqSample) string {
	var tags []string
	if s.swept {
		tags = append(tags, "swept")
	}
	if s.grew {
		tags = append(tags, "grew")
	}
	return strings.Join(tags, ",")
}

// latencies returns the milliseconds of the samples keep selects.
func latencies(samples []reqSample, keep func(reqSample) bool) []float64 {
	var out []float64
	for _, s := range samples {
		if !s.failed && keep(s) {
			out = append(out, s.ms)
		}
	}
	return out
}

func failures(samples []reqSample) int {
	n := 0
	for _, s := range samples {
		if s.failed {
			n++
		}
	}
	return n
}

func ofKind(kind string) func(reqSample) bool {
	return func(s reqSample) bool { return s.kind == kind }
}

// ---- the serving workloads -------------------------------------------

func (cfg config) sweepEvery() int { return scaled(4096, cfg.scale, 64) }

func (cfg config) serveDims() []int {
	return []int{scaled(60000, cfg.scale, 600), scaled(20000, cfg.scale, 200), scaled(200, cfg.scale, 20)}
}

// replicaOptions are the options `worker -serve-http -rank 10` builds
// from its flag defaults when started with GOMAXPROCS=2.
func (cfg config) replicaOptions() dismastd.Options {
	return dismastd.Options{
		Rank: rank, MaxIters: 10, ForgettingFactor: mu, Seed: 1, Workers: 1, Threads: 2,
		Layout: "coo", Solver: "exact", SweepEvery: cfg.sweepEvery(),
	}
}

type serveSetup struct {
	srv     *serverProc
	gen     *eventGen
	log     []logOp
	warmOps int
	hash    string // of the warm-up sequence: the part of the input a seed fixes
}

// setupServe spawns the server and warms it: the first event pins the
// mode sizes, Zipf events follow in large batches, and a flush leaves
// the model on a sweep boundary.
func setupServe(cfg config) (*serveSetup, error) {
	srv, err := startServer(cfg)
	if err != nil {
		return nil, err
	}
	su := &serveSetup{srv: srv, gen: newEventGen(cfg.serveDims(), cfg.seed)}
	c := newClient(srv.base)
	defer c.close()
	warm, per := scaled(80_000, cfg.scale, 2*cfg.sweepEvery()), scaled(20_000, cfg.scale, cfg.sweepEvery())
	for sent := 0; sent < warm; sent += per {
		batch := su.gen.batch(per, false)
		if sent == 0 {
			batch[0] = su.gen.pin()
		}
		if _, err := c.ingest(batch); err != nil {
			srv.stop()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
		su.log = append(su.log, logOp{batch: batch})
	}
	if _, err := c.do(http.MethodPost, "/flush", nil); err != nil {
		srv.stop()
		return nil, fmt.Errorf("warm-up flush: %w", err)
	}
	su.log = append(su.log, logOp{flush: true})
	su.warmOps = len(su.log)
	su.hash = fmt.Sprintf("%016x", su.gen.hash)
	return su, nil
}

// queryPool is the warm-up's events minus the pin: coordinates the
// model has observed, so a top-K over them scores real rows.
func (su *serveSetup) queryPool() []dismastd.Event {
	var pool []dismastd.Event
	for _, op := range su.log[:su.warmOps] {
		pool = append(pool, op.batch...)
	}
	return pool[1:]
}

func runServe(cfg config, rec *recorder) (*result, error) {
	res := newResult(cfg)
	var su *serveSetup
	var setupS []float64
	for i := 0; i < setupReps; i++ {
		if su != nil {
			su.srv.stop()
		}
		t0 := time.Now()
		var err error
		if su, err = setupServe(cfg); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer su.srv.stop()
	res.Samples["setups"] = len(setupS)

	tr := &traffic{
		base: su.srv.base, gen: su.gen, log: &su.log, queries: su.queryPool(), seed: cfg.seed,
		batchSize: 16, growEvery: 64,
	}
	if cfg.workload == wlServeWrite {
		tr.writerRate, tr.readerRate = 0, 20
		tr.readOps = []readOp{{"predict", predictPath}}
	} else {
		tr.writerRate, tr.readerRate = 20, 0
		tr.readOps = []readOp{{"topk", topkPath(0)}, {"predict", predictPath}}
	}
	rssReset := resetPeakRSS(su.srv.cmd.Process.Pid)
	window := time.Duration(cfg.seconds * float64(time.Second))
	var writes, reads, twinWrites, twinReads []reqSample
	var late float64
	if rec == nil {
		writes, reads, late = tr.run(nil, window)
	} else {
		// Traced run: an untraced half first, as the overhead's base.
		twinWrites, twinReads, _ = tr.run(nil, window/2)
		id := rec.begin("window")
		writes, reads, late = tr.run(rec, window/2)
		rec.end(id)
	}
	measuredS := window.Seconds()
	if rec != nil {
		measuredS /= 2
	}
	res.op(len(writes)+len(reads)+len(twinWrites)+len(twinReads),
		failures(writes)+failures(reads)+failures(twinWrites)+failures(twinReads))

	// The program's answers, collected while it is still up.
	c := newClient(su.srv.base)
	defer c.close()
	_, err := c.do(http.MethodPost, "/flush", nil)
	res.check("final_flush", err == nil, "%v", err)
	su.log = append(su.log, logOp{flush: true})
	sent := 0
	for _, op := range su.log {
		sent += len(op.batch)
	}
	var stats struct {
		Events int `json:"events"`
	}
	b, err := c.do(http.MethodGet, "/stats", nil)
	if err == nil {
		err = json.Unmarshal(b, &stats)
	}
	res.check("stats_events_equal_sent", err == nil && stats.Events == sent, "server counts %d, sent %d, err %v", stats.Events, sent, err)
	probes := make([][]int, 100)
	answers := make([]float64, len(probes))
	src := xrand.New(xrand.Derive(cfg.seed, 0x9f0be))
	probeErrs := 0
	for i := range probes {
		probes[i] = tr.queries[src.Intn(len(tr.queries))].Coords
		if answers[i], err = c.predict(probes[i]); err != nil {
			probeErrs++
		}
	}
	res.op(len(probes), probeErrs)
	rss, err := peakRSSMB(su.srv.cmd.Process.Pid)
	if err != nil {
		return nil, err
	}
	su.srv.stop()

	// The oracle: the same batch sequence through an in-process Stream.
	fitBatches := scaled(1024, cfg.scale, 8)
	if cfg.workload == wlServeRead {
		fitBatches = scaled(64, cfg.scale, 8) // its writer is paced at 20 batches/s
	}
	rep, err := replay(cfg, rec, su.log, su.warmOps, su.warmOps+fitBatches)
	if err != nil {
		return nil, fmt.Errorf("replica: %w", err)
	}
	worst, bad := 0.0, 0
	for i, p := range probes {
		d := relDiff(answers[i], rep.stream.Predict(p))
		worst = max(worst, d)
		if d > 1e-9 {
			bad++
		}
	}
	res.check("predict_equals_replica", bad == 0, "%d of %d probes differ, worst rel %.3g", bad, len(probes), worst)
	fit := rep.fit
	res.check("fit_finite", fit == fit && fit > -1 && fit <= 1, "fit %v", fit)
	if len(su.log) < su.warmOps+fitBatches {
		res.Notes["fit"] = fmt.Sprintf("window too short: fit taken at its end, not after %d batches", fitBatches)
	}
	res.InputHash = su.hash
	res.Samples["events_sent"] = sent

	ingest := latencies(writes, func(reqSample) bool { return true })
	stalls := latencies(writes, func(s reqSample) bool { return s.swept })
	topk := latencies(reads, ofKind("topk"))
	predict := latencies(reads, ofKind("predict"))
	res.Samples["writes"], res.Samples["reads"] = len(writes), len(reads)
	res.Samples["sweep_stalls"] = len(stalls)
	res.Notes["paced_generator_late_ms_max"] = fmt.Sprintf("%.3f", late)
	if !rssReset {
		res.Notes["rss_peak_mb"] = "VmHWM could not be reset; the peak includes the warm-up"
	}
	if cfg.workload == wlServeWrite {
		res.check("sweeps_in_window", len(stalls) > 0, "%d sweep boundaries in the measured window", len(stalls))
	}

	if !cfg.trace {
		res.set("setup_s", median(setupS))
		res.set("fit", fit)
		res.set("rss_peak_mb", rss)
		// The gated tail is p90: on this machine p95 and beyond sit among
		// the requests that collide with a snapshot swap or a collection
		// and move by a tenth from run to run. The highest percentile with
		// ten samples beyond it is reported under its issue name, ungated.
		primary := func(op string, lat []float64, done float64) {
			tail, pct := tailPercentile(lat)
			res.set("op_ms_p50", median(lat))
			res.set("op_ms_tail", quantile(lat, 0.90))
			res.set("work_per_s", done/measuredS)
			res.named(op+"_ms_p50", "ms", median(lat))
			res.named(op+"_ms_p90", "ms", quantile(lat, 0.90))
			res.named(op+"_ms_p99", "ms", tail)
			res.Notes[op+"_ms_p99"] = fmt.Sprintf("p%.4g of %d /%s round trips", pct, len(lat), op)
		}
		if cfg.workload == wlServeWrite {
			grew := latencies(writes, func(s reqSample) bool { return s.grew })
			events := float64((len(writes) - failures(writes)) * tr.batchSize)
			primary("ingest", ingest, events)
			res.Samples["grew"] = len(grew)
			res.named("ingest_grew_ms_p50", "ms", median(grew))
			res.named("sweep_stall_ms", "ms", median(stalls))
			res.named("ingest_events_per_s", "1/s", events/measuredS)
		} else {
			queries := float64(len(reads) - failures(reads))
			primary("topk", topk, queries)
			res.named("predict_ms_p50", "ms", median(predict))
			res.named("queries_per_s", "1/s", queries/measuredS)
		}
		return res, nil
	}

	// Traced run: per-layer numbers on this workload's own inputs — the
	// model after warm-up, the window's events, the model they produced.
	primary := func(w, r []reqSample) float64 {
		if cfg.workload == wlServeWrite {
			return median(latencies(w, func(reqSample) bool { return true }))
		}
		return median(latencies(r, ofKind("topk")))
	}
	base := primary(twinWrites, twinReads)
	lm := &layerMetrics{res: res, rec: rec, cfg: cfg}
	res.set("dtd.init_ms", rep.initMS)
	res.set("runtime.alloc_mb_per_pass", rep.allocMB)
	res.set("runtime.gc_pause_ms", rep.gcPauseMS)
	res.set("trace.overhead_pct", 100*(primary(writes, reads)-base)/base)
	windowBatches := make([][]dismastd.Event, 0, len(su.log)-su.warmOps)
	for _, op := range su.log[su.warmOps:] {
		windowBatches = append(windowBatches, op.batch)
	}
	final := stateOf(rep.stream)
	probe := probeInput{
		prev: rep.warm, snap: eventsTensor(final.Dims, windowBatches), cur: final,
		workers: 1, seedStep: rep.stream.Snapshots(),
	}
	if err := lm.numericStack(probe); err != nil {
		return nil, err
	}
	if err := lm.eventAndServe(final, cfg.seed); err != nil {
		return nil, err
	}
	return res, nil
}

type replayed struct {
	stream    *dismastd.Stream
	warm      *dtd.State // deep copy of the model as the warm-up left it
	fit       float64    // fit of the model to everything ingested, taken after fitOps writes
	initMS    float64    // the first call, which runs the initial CP-ALS
	allocMB   float64
	gcPauseMS float64
}

// replay feeds the acknowledged write sequence to an in-process Stream
// configured like the server. The fit is taken after a fixed number of
// writes, not at the end: how many events a window holds depends on how
// fast the server is, and a quality metric must not move with speed.
func replay(cfg config, rec *recorder, log []logOp, warmOps, fitOps int) (*replayed, error) {
	out := &replayed{stream: dismastd.NewStream(cfg.replicaOptions())}
	id := rec.begin("replica replay")
	defer rec.end(id)
	fitOps = min(fitOps, len(log))
	var before runtime.MemStats
	for i, op := range log {
		if i == warmOps {
			out.warm = stateOf(out.stream).Clone()
			before = memStats()
		}
		name := "dismastd.Stream.IngestEvents"
		if op.flush {
			name = "dismastd.Stream.Flush"
		}
		sid := rec.begin(name)
		t0 := time.Now()
		var err error
		if op.flush {
			_, err = out.stream.Flush()
		} else {
			var r dismastd.EventReport
			if r, err = out.stream.IngestEvents(op.batch); r.Sweep != nil {
				rec.tag(sid, "swept")
			}
		}
		if i == 0 {
			out.initMS = ms(time.Since(t0))
		}
		rec.end(sid)
		if err != nil {
			return nil, err
		}
		if i == fitOps-1 {
			batches := make([][]dismastd.Event, 0, fitOps)
			for _, op := range log[:fitOps] {
				batches = append(batches, op.batch)
			}
			x := eventsTensor(out.stream.Dims(), batches)
			out.fit = 1 - cp.LossAgainst(x, out.stream.Factors())/x.Norm()
		}
	}
	after := memStats()
	out.allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	out.gcPauseMS = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	return out, nil
}
