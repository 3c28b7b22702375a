// Command worker runs one rank of a real multi-process DisMASTD
// cluster over TCP. Every worker process reads the same snapshot files
// (and optional previous-state file), deterministically builds the same
// distribution plan, joins the rendezvous to get its rank, and executes
// the SPMD steps; rank 0 writes the resulting state.
//
// Start a rendezvous, then the workers (typically from a script or
// examples/multiprocess):
//
//	worker -serve 127.0.0.1:9000 -size 3
//	worker -join 127.0.0.1:9000 -tensor snap.tsv -rank 10 -out state.gob   # x3
//
// -tensor accepts a comma-separated snapshot sequence; each snapshot is
// one incremental streaming step, and the whole sequence runs through
// one core.ElasticJob in a single cluster run, every member holding the
// synced state between steps. -heartbeat enables peer failure
// detection: a dead rank surfaces as a typed peer-down error within a
// few intervals instead of stalling until the receive timeout. What the
// survivors then do is the one policy choice: by default they stop with
// that error, and since -checkpoint writes the state after every
// completed step (view rank 0, atomic rename) a restarted cluster with
// -resume continues from the last checkpoint and reproduces the
// uninterrupted run bit for bit; with -elastic they absorb the dead
// rank and finish the stream (results within reordering tolerance),
// and scripted joins and drains are admitted at step fences.
//
// A second invocation can still pass -prev state.gob and the next
// snapshot to perform an incremental streaming step across processes.
//
// A third mode, -serve-http, skips files and clusters entirely: one
// process ingests events over HTTP and answers reconstruction and
// top-K queries from epoch-swapped factor snapshots (see serve.go).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"dismastd"
	"dismastd/internal/cluster"
	"dismastd/internal/core"
	"dismastd/internal/dtd"
	"dismastd/internal/obs"
	obscluster "dismastd/internal/obs/cluster"
	"dismastd/internal/partition"
	"dismastd/internal/sample"
	"dismastd/internal/tensor"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "worker: %v\n", err)
		os.Exit(1)
	}
}

// workerConfig carries the parsed worker-mode flags.
type workerConfig struct {
	join, listen string
	tensors      []string
	prevPath     string
	outPath      string
	checkpoint   string
	resume       bool
	rank, iters  int
	threads      int
	solver       sample.Kind
	samples      int
	mu           float64
	method       partition.Method
	seed         uint64
	timeout      time.Duration
	heartbeat    time.Duration
	debugAddr    string

	elastic bool // absorb rank deaths and continue, instead of failing for -resume
	members int
	joinAt  map[int]int // step -> joining world rank
	drainAt map[int]int // step -> draining world rank
	killAt  map[int]int // step -> chaos-killed world rank

	plane     bool
	rebalance bool
	threshold float64
	cooldown  int
}

// planeConfig maps the detector knobs onto the plane configuration;
// zero values mean the plane's own defaults.
func (cfg workerConfig) planeConfig() obscluster.Config {
	return obscluster.Config{Detector: obscluster.DetectorConfig{
		Threshold: cfg.threshold,
		Cooldown:  cfg.cooldown,
	}}
}

// resolveThreads maps the -threads flag to a pool size: 0 means one
// compute thread per available CPU.
func resolveThreads(n int) int {
	if n == 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	serve := fs.String("serve", "", "rendezvous mode: listen address (e.g. 127.0.0.1:9000)")
	serveHTTP := fs.String("serve-http", "", "serve mode: run the online ingest/query front end on this address (e.g. 127.0.0.1:8080)")
	statePath := fs.String("state", "", "serve mode: model checkpoint path — resumed at start if present, written on shutdown")
	sweepEvery := fs.Int("sweep-every", 4096, "serve mode: run the drift-backstop full ALS sweep once this many events are pending (0 = only on /flush and shutdown)")
	workers := fs.Int("workers", 1, "serve mode: decomposition engine workers (1 = centralized DTD, >1 = in-process distributed DisMASTD)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "serve mode: bound on draining in-flight requests at shutdown")
	size := fs.Int("size", 0, "rendezvous mode: cluster size")
	joinWindow := fs.Duration("join-window", 0, "rendezvous mode: bound on total cluster formation time (0 = none)")
	join := fs.String("join", "", "worker mode: rendezvous address to join")
	listen := fs.String("listen", "127.0.0.1:0", "worker mode: this rank's listen address")
	tensorPath := fs.String("tensor", "", "worker mode: comma-separated snapshot tensor files (text or .bin/.gob)")
	prevPath := fs.String("prev", "", "worker mode: previous state file (empty = decompose from scratch)")
	outPath := fs.String("out", "", "worker mode: where rank 0 writes the resulting state")
	checkpoint := fs.String("checkpoint", "", "worker mode: prefix for per-step state checkpoints (rank 0 writes <prefix>.step<K>.gob)")
	resume := fs.Bool("resume", false, "worker mode: continue from the latest -checkpoint instead of recomputing completed steps")
	rank := fs.Int("rank", 10, "CP rank R")
	iters := fs.Int("iters", 10, "maximum ALS sweeps")
	threads := fs.Int("threads", 0, "compute threads for this rank's numeric kernels (0 = GOMAXPROCS); results are identical at every value")
	solver := fs.String("solver", "exact", "least-squares strategy: exact (full MTTKRP) or sampled (leverage-score sketch, sublinear in nnz; forces broadcast row exchange)")
	samples := fs.Int("samples", 0, "sketch size per mode for -solver sampled (0 = default 8192)")
	mu := fs.Float64("mu", 0.8, "forgetting factor")
	method := fs.String("method", "mtp", "partitioning heuristic: gtp or mtp (both tensor-stationary: entries stay put, factor rows travel)")
	seed := fs.Uint64("seed", 1, "initialisation seed")
	timeout := fs.Duration("timeout", 2*time.Minute, "join and receive timeout")
	heartbeat := fs.Duration("heartbeat", 0, "peer failure-detection probe interval (0 = off)")
	debugAddr := fs.String("debug-addr", "", "worker mode: serve pprof, metrics, and trace debug endpoints on this address (no auth — bind loopback only; empty = off)")
	elastic := fs.Bool("elastic", false, "worker mode: absorb rank deaths and finish the stream (results within reordering tolerance) instead of failing so -resume reproduces the run bitwise; enables scripted joins and drains at step fences")
	members := fs.Int("members", 0, "elastic mode: initial members, world ranks 0..N-1 (0 = every rank; the rest start as spares)")
	joinAt := fs.String("join-at", "", "elastic mode: scripted joins as rank:step,... — identical on every rank")
	drainAt := fs.String("drain-at", "", "elastic mode: scripted drains as rank:step,... — identical on every rank")
	killAt := fs.String("kill-at", "", "chaos testing: kill script as rank:step,... — the named rank crashes mid-step; identical on every rank")
	plane := fs.Bool("plane", false, "worker mode: run the cluster observability plane — per-step fences gather every rank's metric deltas, spans, and runtime gauges to rank 0, served on -debug-addr's /debug/cluster")
	rebalance := fs.Bool("rebalance-on-imbalance", false, "elastic mode: arm the plane's imbalance detector — sustained per-rank compute skew re-partitions the stream live at the next fence (implies -plane)")
	threshold := fs.Float64("imbalance-threshold", 0, "detector: load/compute coefficient of variation that counts as imbalanced (0 = default 0.3)")
	cooldown := fs.Int("imbalance-cooldown", 0, "detector: fences to hold fire after a rebalance (0 = default 2)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch {
	case *serveHTTP != "":
		if *serve != "" || *join != "" {
			return fmt.Errorf("-serve-http is exclusive with -serve and -join")
		}
		cfg := serveConfig{
			addr:      *serveHTTP,
			statePath: *statePath,
			opts: dismastd.Options{
				Rank: *rank, MaxIters: *iters, ForgettingFactor: *mu, Seed: *seed,
				Workers: *workers, Threads: resolveThreads(*threads),
				Solver: *solver, Samples: *samples,
				SweepEvery: *sweepEvery,
			},
			drainTimeout: *drainTimeout,
		}
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sig)
		return runServe(cfg, stdout, stderr, sig)
	case *serve != "":
		if *size <= 0 {
			return fmt.Errorf("-serve requires -size")
		}
		rv, err := cluster.NewRendezvousConfigured(*serve, *size, cluster.RendezvousConfig{
			JoinWindow: *joinWindow,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(stderr, "worker: "+format+"\n", args...)
			},
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "worker: rendezvous on %s for %d ranks\n", rv.Addr(), *size)
		return rv.Wait()
	case *join != "":
		var pm partition.Method
		switch strings.ToLower(*method) {
		case "gtp":
			pm = partition.GTPMethod
		case "mtp":
			pm = partition.MTPMethod
		default:
			return fmt.Errorf("unknown method %q", *method)
		}
		if *tensorPath == "" {
			return fmt.Errorf("worker mode requires -tensor")
		}
		if *resume && *checkpoint == "" {
			return fmt.Errorf("-resume requires -checkpoint")
		}
		joins, err := parseRankSteps(*joinAt)
		if err != nil {
			return fmt.Errorf("-join-at: %w", err)
		}
		drains, err := parseRankSteps(*drainAt)
		if err != nil {
			return fmt.Errorf("-drain-at: %w", err)
		}
		kills, err := parseRankSteps(*killAt)
		if err != nil {
			return fmt.Errorf("-kill-at: %w", err)
		}
		if !*elastic && (len(joins)+len(drains) > 0 || *members != 0) {
			return fmt.Errorf("-members/-join-at/-drain-at require -elastic")
		}
		if *rebalance && !*elastic {
			return fmt.Errorf("-rebalance-on-imbalance requires -elastic (a rebalance is a view change)")
		}
		sk, err := sample.ParseKind(*solver)
		if err != nil {
			return err
		}
		cfg := workerConfig{
			join: *join, listen: *listen,
			tensors:  strings.Split(*tensorPath, ","),
			prevPath: *prevPath, outPath: *outPath,
			checkpoint: *checkpoint, resume: *resume,
			rank: *rank, iters: *iters, threads: resolveThreads(*threads), mu: *mu, method: pm, seed: *seed,
			solver: sk, samples: *samples,
			timeout: *timeout, heartbeat: *heartbeat, debugAddr: *debugAddr,
			elastic: *elastic, members: *members,
			joinAt: joins, drainAt: drains, killAt: kills,
			plane: *plane || *rebalance, rebalance: *rebalance,
			threshold: *threshold, cooldown: *cooldown,
		}
		return runWorker(stdout, stderr, cfg)
	default:
		return fmt.Errorf("need -serve or -join")
	}
}

func runWorker(stdout, stderr io.Writer, cfg workerConfig) error {
	logger := obs.NewLogger(stderr, slog.LevelInfo)
	snaps := make([]*tensor.Tensor, len(cfg.tensors))
	for i, path := range cfg.tensors {
		snap, err := loadTensor(path)
		if err != nil {
			return fmt.Errorf("load tensor %s: %w", path, err)
		}
		snaps[i] = snap
	}
	prev := dtd.EmptyState(snaps[0].Order(), cfg.rank)
	if cfg.prevPath != "" {
		st, err := readStateFile(cfg.prevPath)
		if err != nil {
			return fmt.Errorf("read prev state: %w", err)
		}
		prev = st
	}
	start := 0
	if cfg.resume {
		st, step, err := latestCheckpoint(cfg.checkpoint, len(snaps), func(step int, err error) {
			logger.Warn("ignoring damaged checkpoint", "step", step, "err", err)
		})
		if err != nil {
			return err
		}
		if st != nil {
			prev = st
			start = step + 1
			logger.Info("resuming after checkpoint", "step", step, "path", checkpointPath(cfg.checkpoint, step))
		}
	}

	node, err := cluster.JoinTCP(cfg.join, cfg.listen, cfg.timeout)
	if err != nil {
		return fmt.Errorf("join cluster: %w", err)
	}
	defer node.Close()
	node.SetRecvTimeout(cfg.timeout)
	node.SetLogger(logger)
	log := logger.With("rank", node.Rank(), "size", node.Size())
	if cfg.heartbeat > 0 {
		if err := node.StartHeartbeat(cfg.heartbeat, 3); err != nil {
			return err
		}
	}
	// The cluster plane comes up lazily (the driver builds it per
	// stream); the debug endpoints hold a pointer they resolve per
	// scrape, serving 503 until the first fence can run.
	var planeHolder atomic.Pointer[obscluster.Plane]
	if cfg.debugAddr != "" {
		srv, addr, err := startDebugServer(cfg.debugAddr, node.Obs(), planeHolder.Load)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		defer srv.Close()
		log.Info("debug endpoints serving", "addr", addr.String())
	}

	if start == len(snaps) {
		// -resume found the last step's checkpoint: nothing is left to run.
		if node.Rank() == 0 && cfg.outPath != "" {
			return writeOut(log, cfg.outPath, prev)
		}
		return nil
	}

	members := cfg.members
	if members == 0 {
		members = node.Size()
	}
	// A resumed run re-indexes the script against the remaining
	// snapshots; events for already-checkpointed steps are dropped.
	shift := func(script map[int]int) map[int]int {
		out := map[int]int{}
		for s, r := range script {
			if s >= start {
				out[s-start] = r
			}
		}
		return out
	}
	stepStart := time.Now()
	o := core.ElasticOptions{
		Options: core.Options{
			Rank: cfg.rank, MaxIters: cfg.iters, Mu: cfg.mu, Seed: cfg.seed,
			Method: cfg.method, Threads: cfg.threads,
			Solver: cfg.solver, Samples: cfg.samples, Obs: node.Obs(),
		},
		World:          node.Size(),
		Members:        members,
		KillAtStep:     shift(cfg.killAt),
		JoinAtStep:     shift(cfg.joinAt),
		DrainAtStep:    shift(cfg.drainAt),
		FailOnPeerDown: !cfg.elastic,
		// Runs on whichever rank is the view's rank 0 when the step ends
		// (this node's rank 0 unless -elastic outlived it).
		Checkpoint: func(step int, st *dtd.State, stats *core.StepStats) error {
			abs := start + step
			fmt.Fprintf(stdout, "rank %d: iters=%d loss=%.6g complement_nnz=%d\n", node.Rank(), stats.Iters, stats.Loss, stats.ComplementNNZ)
			if cfg.checkpoint != "" {
				if err := writeCheckpoint(cfg.checkpoint, abs, st); err != nil {
					return fmt.Errorf("checkpoint step %d: %w", abs, err)
				}
				log.Info("checkpoint written", "step", abs, "path", checkpointPath(cfg.checkpoint, abs))
			}
			log.Info("step done", "step", abs, "wall", time.Since(stepStart).Round(time.Millisecond))
			stepStart = time.Now()
			return nil
		},
	}
	if cfg.plane {
		pc := cfg.planeConfig()
		o.Plane = &pc
		o.RebalanceOnImbalance = cfg.rebalance
		o.PlaneReady = func(_ int, p *obscluster.Plane) { planeHolder.Store(p) }
	}
	job, err := core.NewElasticJob(prev, snaps[start:], o)
	if err != nil {
		return err
	}
	stats, runErr := node.Run(job.RunWorker)
	if st, loss, transitions, err := job.Result(); err == nil {
		// This rank ended as the final view's rank 0 and holds the state.
		fmt.Fprintf(stdout, "rank %d: final loss=%.6g transitions=%d\n", node.Rank(), loss, len(transitions))
		if cfg.outPath != "" {
			if err := writeOut(log, cfg.outPath, st); err != nil {
				return err
			}
		}
	}
	if runErr != nil {
		return fmt.Errorf("rank %d: %w", node.Rank(), runErr)
	}
	log.Info("run done",
		"bytes_sent", stats.Ranks[0].BytesSent, "msgs_sent", stats.Ranks[0].MsgsSent,
		"wall", stats.Wall.Round(time.Millisecond))
	return nil
}

// writeOut writes the run's final state to the -out path.
func writeOut(log *slog.Logger, path string, st *dtd.State) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := dtd.WriteState(f, st); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	log.Info("state written", "path", path)
	return nil
}

// parseRankSteps parses a "rank:step,rank:step" membership script with
// at most one event of its kind per step.
func parseRankSteps(s string) (map[int]int, error) {
	out := map[int]int{}
	if s == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		rs, ss, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("entry %q is not rank:step", part)
		}
		rank, err1 := strconv.Atoi(rs)
		step, err2 := strconv.Atoi(ss)
		if err1 != nil || err2 != nil || rank < 0 || step < 0 {
			return nil, fmt.Errorf("entry %q is not rank:step", part)
		}
		if _, dup := out[step]; dup {
			return nil, fmt.Errorf("two events at step %d", step)
		}
		out[step] = rank
	}
	return out, nil
}

// startDebugServer serves the node's observability debug endpoints
// (net/http/pprof, /metrics, /debug/metrics, /debug/phases,
// /debug/trace) plus the cluster plane's /debug/cluster views on addr
// until the returned server is closed. The endpoints carry no
// authentication; addr should stay on loopback or a trusted network.
func startDebugServer(addr string, o *obs.Obs, getPlane func() *obscluster.Plane) (*http.Server, net.Addr, error) {
	mux := http.NewServeMux()
	ch := obscluster.Handler(getPlane)
	mux.Handle("/debug/cluster", ch)
	mux.Handle("/debug/cluster/", ch)
	mux.Handle("/", obs.Handler(o))
	return startHTTPServer(addr, mux)
}

// startHTTPServer binds addr (":0" picks a free port) and serves mux in
// the background — the shared listener bring-up for the debug endpoints
// and the serving front end.
func startHTTPServer(addr string, mux *http.ServeMux) (*http.Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	return srv, ln.Addr(), nil
}

// checkpointPath names the checkpoint for one completed step.
func checkpointPath(prefix string, step int) string {
	return fmt.Sprintf("%s.step%d.gob", prefix, step)
}

// writeCheckpoint persists the post-step state with a temp-file rename
// so a crash mid-write never leaves a truncated checkpoint behind.
func writeCheckpoint(prefix string, step int, st *dtd.State) error {
	path := checkpointPath(prefix, step)
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := dtd.WriteState(f, st); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// latestCheckpoint finds the highest completed step's readable state,
// falling back past damaged files: a corrupt or truncated checkpoint
// (a torn write on a non-atomic filesystem, a bad disk) costs only the
// steps it covered, not the whole run. Returns (nil, -1, nil) when no
// checkpoint survives.
func latestCheckpoint(prefix string, steps int, warn func(step int, err error)) (*dtd.State, int, error) {
	for step := steps - 1; step >= 0; step-- {
		st, err := readStateFile(checkpointPath(prefix, step))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if errors.Is(err, dtd.ErrCorruptState) {
			if warn != nil {
				warn(step, err)
			}
			continue
		}
		if err != nil {
			return nil, 0, fmt.Errorf("checkpoint step %d: %w", step, err)
		}
		return st, step, nil
	}
	return nil, -1, nil
}

func readStateFile(path string) (*dtd.State, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dtd.ReadState(f)
}

func loadTensor(path string) (*tensor.Tensor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return tensor.Read(f)
}
