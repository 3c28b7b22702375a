package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"dismastd"
	"dismastd/internal/cluster"
	"dismastd/internal/core"
	"dismastd/internal/cp"
	"dismastd/internal/dataset"
	"dismastd/internal/dtd"
	"dismastd/internal/partition"
	"dismastd/internal/xrand"
)

// The three stream workloads — bulk_nnz, dist_inproc, dist_tcp — share
// one skeleton: decompose the 75 % snapshot once and checkpoint it
// (set-up), then repeat passes that restore the checkpoint and run the
// paper's five incremental steps, timing each step call from outside.

const (
	iters = 10     // the paper's sweeps per step
	tol   = 1e-300 // never met, so every step runs exactly iters sweeps
	mu    = 0.8    // the library's default forgetting factor
)

// bulkOptions is what a user who sets only the rank gets, with the
// sweep count pinned.
func bulkOptions() dismastd.Options {
	return dismastd.Options{Rank: rank, MaxIters: iters, Tol: tol}
}

// distOptions is the paper's DisMASTD-MTP on two ranks, one thread each.
func distOptions() dismastd.Options {
	o := bulkOptions()
	o.Workers, o.Partitioner, o.Threads = 2, dismastd.MTP, 1
	return o
}

type stepOut struct {
	ms      float64
	entries int
	wire    int64
	loss    float64
}

type passOut struct {
	steps  []stepOut
	auxMS  []float64    // checkpoint round trips (stream engines) or state hand-offs (TCP)
	states []*dtd.State // with keep: the restored state, then the state after every step
}

func (p passOut) totalMS() float64 {
	t := 0.0
	for _, s := range p.steps {
		t += s.ms
	}
	return t
}

// engine runs one pass of five steps from the checkpoint.
type engine interface {
	pass(rec *recorder, keep bool) (passOut, error)
	close()
}

// streamEngine drives the public dismastd.Stream.
type streamEngine struct {
	in   *streamInput
	opts dismastd.Options
	ckpt []byte
}

func stateOf(s *dismastd.Stream) *dtd.State {
	return &dtd.State{Dims: append([]int(nil), s.Dims()...), Factors: append([]*dismastd.Dense(nil), s.Factors()...)}
}

// auxReps is how many checkpoint round trips a pass times; one is too
// short an operation to hold a median still.
const auxReps = 5

func (e *streamEngine) pass(rec *recorder, keep bool) (passOut, error) {
	var out passOut
	id := rec.begin("dismastd.ResumeStream")
	s, err := dismastd.ResumeStream(bytes.NewReader(e.ckpt), e.opts)
	rec.end(id)
	if err != nil {
		return out, err
	}
	if keep {
		out.states = append(out.states, stateOf(s))
	}
	for i := 1; i < len(e.in.snaps); i++ {
		id := rec.begin("dismastd.Stream.Ingest")
		t0 := time.Now()
		rep, err := s.Ingest(e.in.snaps[i])
		d := time.Since(t0)
		rec.end(id)
		if err != nil {
			return out, fmt.Errorf("step %d: %w", i, err)
		}
		out.steps = append(out.steps, stepOut{ms(d), rep.EntriesTouched, rep.BytesOnWire, rep.Loss})
		if keep {
			out.states = append(out.states, stateOf(s))
		}
	}
	var buf bytes.Buffer
	for i := 0; i < auxReps; i++ {
		buf.Reset()
		id := rec.begin("checkpoint round trip")
		t0 := time.Now()
		if err := s.Save(&buf); err != nil {
			return out, err
		}
		if _, err := dismastd.ResumeStream(bytes.NewReader(buf.Bytes()), e.opts); err != nil {
			return out, err
		}
		out.auxMS = append(out.auxMS, ms(time.Since(t0)))
		rec.end(id)
	}
	return out, nil
}

func (e *streamEngine) close() {}

// tcpPair is two cluster.TCPNodes joined through a loopback rendezvous
// inside this process, indexed by rank.
type tcpPair struct {
	rv    *cluster.Rendezvous
	nodes [2]*cluster.TCPNode
}

func joinTCPPair() (*tcpPair, error) {
	rv, err := cluster.NewRendezvous("127.0.0.1:0", 2)
	if err != nil {
		return nil, err
	}
	p := &tcpPair{rv: rv}
	joined := make([]*cluster.TCPNode, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for i := range joined {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			joined[i], errs[i] = cluster.JoinTCP(rv.Addr(), "127.0.0.1:0", 30*time.Second)
		}(i)
	}
	wg.Wait()
	for _, n := range joined {
		if n != nil {
			p.nodes[n.Rank()] = n
		}
	}
	for _, err := range errs {
		if err != nil {
			p.close()
			return nil, err
		}
	}
	if err := rv.Wait(); err != nil {
		p.close()
		return nil, err
	}
	return p, nil
}

func (p *tcpPair) close() {
	for _, n := range p.nodes {
		if n != nil {
			n.Close()
		}
	}
	p.rv.Close()
}

// run executes fn on both nodes concurrently, the way two worker
// processes would, and returns the per-rank stats.
func (p *tcpPair) run(fn func(rank int, w *cluster.Worker) error) ([2]*cluster.RunStats, error) {
	var stats [2]*cluster.RunStats
	var errs [2]error
	var wg sync.WaitGroup
	for r, n := range p.nodes {
		wg.Add(1)
		go func(r int, n *cluster.TCPNode) {
			defer wg.Done()
			stats[r], errs[r] = n.Run(func(w *cluster.Worker) error { return fn(r, w) })
		}(r, n)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			return stats, fmt.Errorf("rank %d: %w", r, err)
		}
	}
	return stats, nil
}

// tcpEngine runs the loop cmd/worker runs, once per rank: build the
// step job from the shared inputs, RunWorker on the node, then hand
// the new state to every rank through a broadcast.
type tcpEngine struct {
	in   *streamInput
	ckpt []byte
	pair *tcpPair
}

// tcpStepOptions mirrors what dismastd.Stream passes to core for step
// index step, so dist_tcp and dist_inproc compute the same thing.
func tcpStepOptions(step int, node *cluster.TCPNode) core.Options {
	return core.Options{
		Rank: rank, MaxIters: iters, Tol: tol, Seed: xrand.Derive(0, uint64(step)),
		Workers: 2, Method: partition.MTPMethod, Threads: 1, Obs: node.Obs(),
	}
}

func (e *tcpEngine) pass(rec *recorder, keep bool) (passOut, error) {
	var out passOut
	var prev [2]*dtd.State
	var first uint64
	for r := range prev {
		st, steps, err := dtd.ReadStateSteps(bytes.NewReader(e.ckpt))
		if err != nil {
			return out, err
		}
		prev[r], first = st, steps
	}
	if keep {
		out.states = append(out.states, prev[0])
	}
	for i := 1; i < len(e.in.snaps); i++ {
		snap := e.in.snaps[i]
		var jobs [2]*core.StepJob
		id := rec.begin("core.NewStepJob+RunWorker x2")
		t0 := time.Now()
		stats, err := e.pair.run(func(r int, w *cluster.Worker) error {
			job, err := core.NewStepJob(prev[r], snap, tcpStepOptions(int(first)+i-1, e.pair.nodes[r]))
			if err != nil {
				return err
			}
			jobs[r] = job
			return job.RunWorker(w)
		})
		if err != nil {
			return out, fmt.Errorf("step %d: %w", i, err)
		}
		st, sum, err := jobs[0].Result()
		d := time.Since(t0)
		rec.end(id)
		if err != nil {
			return out, fmt.Errorf("step %d: %w", i, err)
		}
		out.steps = append(out.steps, stepOut{ms(d), sum.ComplementNNZ, stats[0].TotalBytes() + stats[1].TotalBytes(), sum.Loss})

		id = rec.begin("state hand-off")
		t0 = time.Now()
		var buf bytes.Buffer
		if err := dtd.WriteState(&buf, st); err != nil {
			return out, err
		}
		_, err = e.pair.run(func(r int, w *cluster.Worker) error {
			var payload []byte
			if r == 0 {
				payload = buf.Bytes()
			}
			b, err := w.BroadcastBytes(0, payload)
			if err != nil {
				return err
			}
			prev[r], err = dtd.ReadState(bytes.NewReader(b))
			return err
		})
		out.auxMS = append(out.auxMS, ms(time.Since(t0)))
		rec.end(id)
		if err != nil {
			return out, fmt.Errorf("step %d hand-off: %w", i, err)
		}
		if keep {
			out.states = append(out.states, prev[0])
		}
	}
	return out, nil
}

func (e *tcpEngine) close() { e.pair.close() }

// streamSetup is everything a stream workload does before its first
// timed call.
type streamSetup struct {
	in     *streamInput
	eng    engine
	opts   dismastd.Options // the public options the workload stands for
	ckpt   []byte           // the decomposed 75 % snapshot, as Stream.Save wrote it
	initMS float64          // the 75 % snapshot's CP-ALS
}

func streamSizing(workload string, scale float64) (dataset.Kind, int) {
	if workload == wlBulk {
		return dataset.Netflix, scaled(1_000_000, scale, 4000)
	}
	return dataset.Book, scaled(250_000, scale, 4000)
}

func setupStream(cfg config) (*streamSetup, error) {
	kind, nnz := streamSizing(cfg.workload, cfg.scale)
	in, err := genStream(kind, nnz, cfg.seed)
	if err != nil {
		return nil, err
	}
	su := &streamSetup{in: in, opts: distOptions()}
	if cfg.workload == wlBulk {
		su.opts = bulkOptions()
	}
	s := dismastd.NewStream(su.opts)
	t0 := time.Now()
	if _, err := s.Ingest(in.snaps[0]); err != nil {
		return nil, fmt.Errorf("initial decomposition: %w", err)
	}
	su.initMS = ms(time.Since(t0))
	var ckpt bytes.Buffer
	if err := s.Save(&ckpt); err != nil {
		return nil, err
	}
	su.ckpt = ckpt.Bytes()
	if cfg.workload == wlDistTCP {
		pair, err := joinTCPPair()
		if err != nil {
			return nil, fmt.Errorf("join TCP pair: %w", err)
		}
		su.eng = &tcpEngine{in: in, ckpt: su.ckpt, pair: pair}
	} else {
		su.eng = &streamEngine{in: in, opts: su.opts, ckpt: su.ckpt}
	}
	return su, nil
}

// setupReps is how often a run sets up; setup_s is the median.
const setupReps = 3

func runStream(cfg config, rec *recorder) (*result, error) {
	res := newResult(cfg)
	var su *streamSetup
	var setupS, initMS []float64
	for i := 0; i < setupReps; i++ {
		if su != nil {
			su.eng.close()
			su = nil
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if su, err = setupStream(cfg); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		initMS = append(initMS, su.initMS)
	}
	defer su.eng.close()
	res.InputHash = su.in.hash
	res.Samples["setups"] = len(setupS)

	debug.FreeOSMemory() // collects, and returns set-up's garbage to the OS
	rssReset := resetPeakRSS(os.Getpid())

	// Measured window. On a traced run the first half runs without the
	// recorder, so the traced half has an untraced twin in the same
	// process to state the tracing overhead against.
	var passes, untracedTwin []passOut
	var allocMB, gcPauseMS []float64
	window := time.Duration(cfg.seconds * float64(time.Second))
	start := time.Now()
	for n := 0; n < 3 || time.Since(start) < window; n++ {
		runtime.GC()
		traced := rec != nil && time.Since(start) >= window/2 && n >= 1
		var before runtime.MemStats
		if traced {
			before = memStats()
		}
		passRec := rec
		if !traced {
			passRec = nil
		}
		passRec.setPass(n)
		id := passRec.begin("pass")
		p, err := su.eng.pass(passRec, false)
		passRec.end(id)
		res.op(len(p.steps), 0)
		if err != nil {
			res.check("pass", false, "pass %d: %v", n, err)
			break
		}
		if traced {
			after := memStats()
			allocMB = append(allocMB, float64(after.TotalAlloc-before.TotalAlloc)/1e6)
			gcPauseMS = append(gcPauseMS, float64(after.PauseTotalNs-before.PauseTotalNs)/1e6)
		}
		if rec != nil && !traced {
			untracedTwin = append(untracedTwin, p)
		} else {
			passes = append(passes, p)
		}
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}
	if len(passes) == 0 {
		return nil, fmt.Errorf("no pass completed: %v", res.Checks)
	}

	ver, err := verifyStream(cfg, res, su, passes)
	if err != nil {
		return nil, err
	}

	// A handful of passes supports no percentile, so the tail is the
	// slowest of the five steps: the largest per-step median.
	var passMS, aux []float64
	stepMS := make([][]float64, len(passes[0].steps))
	for _, p := range passes {
		passMS = append(passMS, p.totalMS())
		for i, s := range p.steps {
			stepMS[i] = append(stepMS[i], s.ms)
		}
		aux = append(aux, p.auxMS...)
	}
	slowest := 0.0
	for _, one := range stepMS {
		slowest = max(slowest, median(one))
	}
	entries, wire := 0, int64(0)
	for _, s := range passes[0].steps {
		entries += s.entries
		wire += s.wire
	}
	streamS := median(passMS) / 1e3
	res.Samples["passes"] = len(passes)
	res.Series["pass_ms"] = passMS
	res.Samples["aux"] = len(aux)
	res.Counts["entries_per_pass"] = int64(entries)
	res.Counts["wire_bytes_per_pass"] = wire
	if !rssReset {
		res.Notes["rss_peak_mb"] = "VmHWM could not be reset; the peak includes input generation"
	}

	if !cfg.trace {
		res.set("setup_s", median(setupS))
		res.set("op_ms_p50", median(passMS))
		res.set("op_ms_tail", slowest)
		res.set("work_per_s", float64(entries)/streamS)
		res.set("fit", ver.fit)
		res.set("rss_peak_mb", rss)
		res.named("stream_s", "s", streamS)
		res.named("entries_per_s", "1/s", float64(entries)/streamS)
		res.named("slowest_step_ms", "ms", slowest)
		if cfg.workload == wlDistTCP {
			res.named("state_handoff_ms", "ms", median(aux))
		} else {
			res.named("checkpoint_roundtrip_ms", "ms", median(aux))
		}
		if cfg.workload != wlBulk {
			res.named("wire_mb", "MB", float64(wire)/1e6)
		}
		return res, nil
	}

	// Traced run: the per-layer numbers, each timed on this workload's
	// own step-3 inputs.
	var twinMS []float64
	for _, p := range untracedTwin {
		twinMS = append(twinMS, p.totalMS())
	}
	res.Samples["untraced_twin_passes"] = len(twinMS)
	lm := &layerMetrics{res: res, rec: rec, cfg: cfg}
	lm.res.set("dtd.init_ms", median(initMS))
	lm.res.set("runtime.alloc_mb_per_pass", median(allocMB))
	lm.res.set("runtime.gc_pause_ms", median(gcPauseMS))
	lm.res.set("trace.overhead_pct", 100*(median(passMS)-median(twinMS))/median(twinMS))
	probe := probeInput{
		prev: ver.states[2], snap: su.in.snaps[3], cur: ver.states[3],
		workers: max(su.opts.Workers, 1), seedStep: 3,
	}
	if err := lm.numericStack(probe); err != nil {
		return nil, err
	}
	if err := lm.eventAndServe(ver.states[len(ver.states)-1], cfg.seed); err != nil {
		return nil, err
	}
	return res, nil
}

type verified struct {
	states []*dtd.State
	fit    float64
}

// verifyStream re-runs one pass keeping every intermediate state and
// checks the program's outputs: reported losses against the
// definitional Eq. (4), determinism across passes, and agreement
// between engines on the same input.
func verifyStream(cfg config, res *result, su *streamSetup, passes []passOut) (*verified, error) {
	ver, err := su.eng.pass(nil, true)
	if err != nil {
		return nil, fmt.Errorf("verification pass: %w", err)
	}
	for i, s := range ver.steps {
		want := dtd.LossAgainst(ver.states[i], su.in.snaps[i+1], ver.states[i+1], mu)
		d := relDiff(s.loss, want)
		res.check(fmt.Sprintf("step%d_loss_vs_eq4", i+1), d <= 1e-6, "reported %.12g recomputed %.12g rel %.3g", s.loss, want, d)
	}
	// A TCP node prefixes its tags with a per-Run epoch counter, so its
	// byte count creeps up by a few bytes per message as the digits
	// grow; everything else repeats exactly.
	wireSlack := 0.0
	if cfg.workload == wlDistTCP {
		wireSlack = 1e-2
	}
	differ := ""
	for n, p := range passes {
		for i, s := range p.steps {
			v := ver.steps[i]
			if differ == "" && (s.loss != v.loss || s.entries != v.entries || relDiff(float64(s.wire), float64(v.wire)) > wireSlack) {
				differ = fmt.Sprintf("pass %d step %d: loss %.17g wire %d entries %d, verification pass %.17g %d %d",
					n, i+1, s.loss, s.wire, s.entries, v.loss, v.wire, v.entries)
			}
		}
	}
	res.check("passes_repeat_exactly", differ == "", "%s", differ)

	final := ver.states[len(ver.states)-1]
	loss := cp.LossAgainst(su.in.full, final.Factors)
	fit := 1 - loss/su.in.full.Norm()
	res.check("fit_finite", fit == fit && fit > -1 && fit <= 1, "fit %v", fit)

	lastLoss := ver.steps[len(ver.steps)-1].loss
	if cfg.workload == wlDistTCP {
		// The same input through the public in-process engine.
		other, err := (&streamEngine{in: su.in, opts: su.opts, ckpt: su.ckpt}).pass(nil, false)
		if err != nil {
			return nil, fmt.Errorf("in-process cross-check: %w", err)
		}
		got := other.steps[len(other.steps)-1].loss
		d := relDiff(lastLoss, got)
		res.check("tcp_vs_inproc_final_loss", d <= 1e-9, "tcp %.15g inproc %.15g rel %.3g", lastLoss, got, d)
	}
	if cfg.trace && cfg.workload != wlBulk {
		single, err := (&streamEngine{in: su.in, opts: bulkOptions(), ckpt: su.ckpt}).pass(nil, false)
		if err != nil {
			return nil, fmt.Errorf("Workers:1 cross-check: %w", err)
		}
		got := single.steps[len(single.steps)-1].loss
		d := relDiff(lastLoss, got)
		res.check("dist_vs_workers1_final_loss", d <= 1e-6, "dist %.12g workers1 %.12g rel %.3g", lastLoss, got, d)
	}
	return &verified{states: ver.states, fit: fit}, nil
}
