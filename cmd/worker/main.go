// Command worker runs DisMASTD's streaming decomposition over a
// sequence of nested snapshot files, on a cluster of ranks that each
// build the same distribution plan deterministically and execute the
// SPMD steps; rank 0 prints one line per step and writes the resulting
// state. It has four modes:
//
//	worker -tensor s0.tsv,s1.tsv -workers 3 -out state.gob       # in-process cluster
//	worker -serve 127.0.0.1:9000 -workers 3                       # rendezvous
//	worker -join 127.0.0.1:9000 -tensor s0.tsv,s1.tsv -out state.gob   # x3: TCP cluster
//	worker -serve-http 127.0.0.1:8080 -state model.gob            # online serving
//
// -tensor accepts a comma-separated snapshot sequence; the first
// snapshot is decomposed from scratch (or from -prev), each later one
// is one incremental streaming step, and the whole sequence runs
// through one core.ElasticJob in a single cluster run, every member
// holding the synced state between steps. Without -join the ranks are
// goroutines of this process (-workers of them, sharing GOMAXPROCS);
// with -join each worker process is one rank of a TCP cluster formed at
// a rendezvous (-serve). The two transports run the same driver and
// write the same bits for the same cluster size.
//
// -checkpoint writes the state after every completed step (view rank 0,
// fsynced temp file renamed over the target), and a rerun with -resume
// continues from the last checkpoint and reproduces the uninterrupted
// run bit for bit, from the membership the -script leaves after the
// checkpointed steps. A dead rank surfaces as a typed peer-down error:
// in process once its goroutine returns, over TCP through -heartbeat
// within a few intervals. What the survivors then do is the one policy
// choice: by default they stop with that error, for -resume; with
// -elastic they absorb the dead rank — re-run the interrupted step
// without it from the state they hold, exactly as a static cluster of
// the survivors would — and finish the stream, and the joins and
// drains of the membership -script are admitted at step fences. Every
// policy and script runs on either transport; only -listen, -heartbeat
// and -debug-addr need a TCP node, and over TCP -elastic requires
// -heartbeat.
//
// -serve-http skips files and clusters entirely: one process ingests
// events over HTTP and answers reconstruction and top-K queries from
// epoch-swapped factor snapshots (see serve.go).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dismastd"
	"dismastd/internal/cluster"
	"dismastd/internal/core"
	"dismastd/internal/dtd"
	"dismastd/internal/obs"
	obscluster "dismastd/internal/obs/cluster"
	"dismastd/internal/par"
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
	workers      int // in-process cluster size, without join
	tensors      []string
	prevPath     string
	outPath      string
	checkpoint   string
	resume       bool
	rank, iters  int
	solver       sample.Kind
	mu           float64
	method       partition.Method
	seed         uint64
	timeout      time.Duration
	heartbeat    time.Duration
	debugAddr    string

	elastic bool // absorb rank deaths and continue, instead of failing for -resume
	script  []core.ScriptEvent

	rebalance bool
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("worker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	serve := fs.String("serve", "", "rendezvous mode: listen address (e.g. 127.0.0.1:9000)")
	serveHTTP := fs.String("serve-http", "", "serve mode: run the online ingest/query front end on this address (e.g. 127.0.0.1:8080)")
	statePath := fs.String("state", "", "serve mode: model checkpoint path — resumed at start if present, written on shutdown")
	sweepEvery := fs.Int("sweep-every", 4096, "serve mode: run the drift-backstop full ALS sweep once this many events are pending (0 = only on /flush and shutdown)")
	workers := fs.Int("workers", 1, "cluster size: the in-process cluster every step runs on (without -join), the ranks a rendezvous (-serve) waits for, or the in-process cluster serve-mode sweeps run DisMASTD on (1 = centralized DTD, bit for bit)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "serve mode: bound on draining in-flight requests at shutdown")
	joinWindow := fs.Duration("join-window", 0, "rendezvous mode: bound on total cluster formation time (0 = none)")
	join := fs.String("join", "", "worker mode: rendezvous address to join (empty = run every rank in this process)")
	listen := fs.String("listen", "127.0.0.1:0", "worker mode: this rank's listen address")
	tensorPath := fs.String("tensor", "", "worker mode: comma-separated snapshot tensor files, TSV text or datagen binary (told apart by their first bytes)")
	prevPath := fs.String("prev", "", "worker mode: previous state file (empty = decompose from scratch)")
	outPath := fs.String("out", "", "worker mode: where rank 0 writes the resulting state")
	checkpoint := fs.String("checkpoint", "", "worker mode: prefix for per-step state checkpoints (rank 0 writes <prefix>.step<K>.gob)")
	resume := fs.Bool("resume", false, "worker mode: continue from the latest -checkpoint instead of recomputing completed steps")
	rank := fs.Int("rank", 10, "CP rank R")
	iters := fs.Int("iters", 10, "maximum ALS sweeps")
	solver := fs.String("solver", "exact", "least-squares strategy: exact (full MTTKRP) or sampled (leverage-score sketch, sublinear in nnz; forces broadcast row exchange)")
	mu := fs.Float64("mu", 0.8, "forgetting factor")
	method := fs.String("method", "mtp", "partitioning heuristic: gtp or mtp (both tensor-stationary: entries stay put, factor rows travel)")
	seed := fs.Uint64("seed", 1, "initialisation seed")
	timeout := fs.Duration("timeout", 2*time.Minute, "join and receive timeout")
	heartbeat := fs.Duration("heartbeat", 0, "peer failure-detection probe interval (0 = off)")
	debugAddr := fs.String("debug-addr", "", "worker mode: serve /metrics, /debug/state, /debug/timeline and /debug/pprof/ on this address (no auth — bind loopback only; empty = off)")
	elastic := fs.Bool("elastic", false, "worker mode: absorb rank deaths — the survivors re-run the interrupted step without the dead rank and finish the stream — instead of failing for -resume; enables scripted joins and drains at step fences; over TCP requires -heartbeat")
	script := fs.String("script", "", "worker mode: membership script as verb:rank:step,... (e.g. kill:1:1,join:3:2), identical on every rank — kill crashes that rank mid-step; join admits that spare and drain retires that member at the step's fence (both need -elastic); the ranks no join names start as members")
	rebalance := fs.Bool("rebalance-on-imbalance", false, "elastic mode: arm the observability plane's imbalance detector — sustained per-rank compute skew re-partitions the stream live at the next fence")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var pm partition.Method
	switch strings.ToLower(*method) {
	case "gtp":
		pm = partition.GTPMethod
	case "mtp":
		pm = partition.MTPMethod
	default:
		return fmt.Errorf("unknown method %q", *method)
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
				Workers: *workers, Partitioner: dismastd.Partitioner(pm),
				Solver: *solver, SweepEvery: *sweepEvery,
			},
			drainTimeout: *drainTimeout,
		}
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sig)
		return runServe(cfg, stdout, stderr, sig)
	case *serve != "":
		if *workers <= 0 {
			return fmt.Errorf("-workers must be positive, got %d", *workers)
		}
		rv, err := cluster.NewRendezvousConfigured(*serve, *workers, cluster.RendezvousConfig{
			JoinWindow: *joinWindow,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(stderr, "worker: "+format+"\n", args...)
			},
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "worker: rendezvous on %s for %d ranks\n", rv.Addr(), *workers)
		return rv.Wait()
	case *join != "" || *tensorPath != "":
		if *join == "" {
			set := map[string]bool{}
			fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
			for _, name := range []string{"listen", "heartbeat", "debug-addr"} {
				if set[name] {
					return fmt.Errorf("-%s needs a TCP node: give -join", name)
				}
			}
			if *workers <= 0 {
				return fmt.Errorf("-workers must be positive, got %d", *workers)
			}
		}
		if *tensorPath == "" {
			return fmt.Errorf("worker mode requires -tensor")
		}
		if *resume && *checkpoint == "" {
			return fmt.Errorf("-resume requires -checkpoint")
		}
		events, err := core.ParseScript(*script)
		if err != nil {
			return fmt.Errorf("-script: %w", err)
		}
		for _, ev := range events {
			if ev.Verb != "kill" && !*elastic {
				return fmt.Errorf("-script entry %q requires -elastic", ev)
			}
		}
		if *elastic && *join != "" && *heartbeat <= 0 {
			// Over TCP only heartbeats mark a dead peer down; without them
			// a death stalls the survivors until -timeout, which no policy
			// can absorb.
			return fmt.Errorf("-elastic over TCP requires -heartbeat (a rank death is seen only through missed heartbeats)")
		}
		if *rebalance && !*elastic {
			return fmt.Errorf("-rebalance-on-imbalance requires -elastic (a rebalance is a view change)")
		}
		sk, err := sample.ParseKind(*solver)
		if err != nil {
			return err
		}
		cfg := workerConfig{
			join: *join, listen: *listen, workers: *workers,
			tensors:  strings.Split(*tensorPath, ","),
			prevPath: *prevPath, outPath: *outPath,
			checkpoint: *checkpoint, resume: *resume,
			rank: *rank, iters: *iters, mu: *mu, method: pm, seed: *seed,
			solver:  sk,
			timeout: *timeout, heartbeat: *heartbeat, debugAddr: *debugAddr,
			elastic: *elastic, script: events,
			rebalance: *rebalance,
		}
		return runWorker(stdout, stderr, cfg)
	default:
		return fmt.Errorf("need -tensor, -serve or -serve-http")
	}
}

// node is the transport a worker-mode run streams over: one rank of a
// TCP cluster (cluster.TCPNode, with -join) or every rank of an
// in-process one (cluster.Local).
type node interface {
	Run(fn func(*cluster.Worker) error) (*cluster.RunStats, error)
	Size() int
	Obs() *obs.Obs
	SetRecvTimeout(d time.Duration)
	SetLogger(l *slog.Logger)
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

	// rank is this process's rank: its TCP node's, or 0 for the
	// in-process cluster, whose rank 0 is one of its goroutines.
	var n node
	var tcp *cluster.TCPNode
	rank, threads := 0, par.ThreadsPerRank(cfg.workers)
	if cfg.join != "" {
		var err error
		if tcp, err = cluster.JoinTCP(cfg.join, cfg.listen, cfg.timeout); err != nil {
			return fmt.Errorf("join cluster: %w", err)
		}
		defer tcp.Close()
		n, rank, threads = tcp, tcp.Rank(), par.ThreadsPerRank(1)
	} else {
		n = cluster.NewLocal(cfg.workers)
	}
	n.SetRecvTimeout(cfg.timeout)
	n.SetLogger(logger)
	log := logger.With("rank", rank, "size", n.Size())
	if cfg.heartbeat > 0 {
		if err := tcp.StartHeartbeat(cfg.heartbeat, 3); err != nil {
			return err
		}
	}
	// The cluster plane comes up with the stream (the driver builds it);
	// the debug endpoints hold a pointer they resolve per scrape and
	// serve this rank's own view until the plane has something merged.
	var planeHolder atomic.Pointer[obscluster.Plane]
	if cfg.debugAddr != "" {
		srv, addr, err := startDebugServer(cfg.debugAddr, n.Obs(), planeHolder.Load)
		if err != nil {
			return fmt.Errorf("debug listener: %w", err)
		}
		defer srv.Close()
		log.Info("debug endpoints serving", "addr", addr.String())
	}

	if start == len(snaps) {
		// -resume found the last step's checkpoint: nothing is left to run.
		if rank == 0 && cfg.outPath != "" {
			return writeOut(log, cfg.outPath, prev)
		}
		return nil
	}

	// A resumed run re-indexes the script against the remaining
	// snapshots: the checkpointed steps' events land at negative steps,
	// so the run starts from the membership they leave.
	script := make([]string, len(cfg.script))
	for i, ev := range cfg.script {
		ev.Step -= start
		script[i] = ev.String()
	}
	stepStart := time.Now()
	o := core.ElasticOptions{
		Options: core.Options{
			Rank: cfg.rank, MaxIters: cfg.iters, Mu: cfg.mu, Seed: cfg.seed,
			Method: cfg.method, Threads: threads,
			Solver: cfg.solver, Obs: n.Obs(),
		},
		World:          n.Size(),
		Script:         strings.Join(script, ","),
		FailOnPeerDown: !cfg.elastic,
		// The driver's plane gathers once per step fence, observation
		// only unless -rebalance-on-imbalance arms its detector.
		RebalanceOnImbalance: cfg.rebalance,
		PlaneReady:           func(_ int, p *obscluster.Plane) { planeHolder.Store(p) },
		// Runs on whichever rank is the view's rank 0 when the step ends
		// (this node's rank 0 unless -elastic outlived it).
		Checkpoint: func(step int, st *dtd.State, stats *core.StepStats) error {
			abs := start + step
			fmt.Fprintf(stdout, "rank %d: iters=%d loss=%.6g complement_nnz=%d\n", rank, stats.Iters, stats.Loss, stats.ComplementNNZ)
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
	job, err := core.NewElasticJob(prev, snaps[start:], o)
	if err != nil {
		return err
	}
	stats, runErr := n.Run(job.RunWorker)
	if st, loss, transitions, err := job.Result(); err == nil {
		// This process ran the final view's rank 0 and holds the state.
		fmt.Fprintf(stdout, "rank %d: final loss=%.6g transitions=%d\n", rank, loss, len(transitions))
		if cfg.outPath != "" {
			if err := writeOut(log, cfg.outPath, st); err != nil {
				return err
			}
		}
	}
	if runErr != nil {
		if tcp == nil {
			return runErr // cluster.Local names the failed rank
		}
		return fmt.Errorf("rank %d: %w", rank, runErr)
	}
	// stats.Ranks holds the ranks this process ran: its TCP node's one,
	// or every in-process rank from 0.
	for i, rs := range stats.Ranks {
		logger.Info("run done", "rank", rank+i, "size", n.Size(),
			"bytes_sent", rs.BytesSent, "msgs_sent", rs.MsgsSent,
			"wall", stats.Wall.Round(time.Millisecond))
	}
	return nil
}

// writeOut writes the run's final state to the -out path.
func writeOut(log *slog.Logger, path string, st *dtd.State) error {
	if err := writeFileDurably(path, func(w io.Writer) error { return dtd.WriteState(w, st) }); err != nil {
		return err
	}
	log.Info("state written", "path", path)
	return nil
}

// writeFileDurably is the one way this command replaces a state file:
// write feeds a temp file beside path, which is fsynced and renamed
// over path, and then the directory is fsynced so the rename itself
// survives a crash. Readers see the old file or the new one, never a
// truncated mix; on any failure the old file stays as it was and the
// temp file is removed.
func writeFileDurably(path string, write func(io.Writer) error) (err error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			os.Remove(tmp)
		}
	}()
	if err = write(f); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err = os.Rename(tmp, path); err != nil {
		return err
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}

// debugState is the /debug/state document: this rank's per-phase
// timing aggregates, plus the cluster table and detector state once
// this rank's plane has coordinated a fence.
type debugState struct {
	Phases  []obs.PhaseStat      `json:"phases"`
	Cluster *obscluster.Snapshot `json:"cluster,omitempty"`
}

// startDebugServer serves the node's observability on addr until the
// returned server is closed:
//
//	/metrics          the registry in Prometheus text, runtime.* gauges sampled per scrape
//	/debug/state      debugState as JSON
//	/debug/timeline   span JSONL: the plane's merged timeline once it holds
//	                  spans, this rank's own span ring before that
//	/debug/pprof/...  net/http/pprof
//
// getPlane is resolved per request, since the plane comes up with the
// stream. The endpoints carry no authentication; addr should stay on
// loopback or a trusted network.
func startDebugServer(addr string, o *obs.Obs, getPlane func() *obscluster.Plane) (*http.Server, net.Addr, error) {
	// A scrape samples into its own MemStats scratch, never the fence's;
	// the lock serialises concurrent scrapes on it.
	var sampleMu sync.Mutex
	sampler := obs.NewRuntimeSampler(o.Reg)
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		sampleMu.Lock()
		sampler.Sample()
		sampleMu.Unlock()
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := o.Reg.Snapshot().WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/state", func(w http.ResponseWriter, _ *http.Request) {
		st := debugState{Phases: o.Trace.Phases()}
		if p := getPlane(); p != nil {
			if snap := p.Snapshot(); snap.Fences > 0 {
				st.Cluster = &snap
			}
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(st); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/timeline", func(w http.ResponseWriter, _ *http.Request) {
		var events []obs.SpanEvent
		if p := getPlane(); p != nil {
			events = p.Timeline()
		}
		if len(events) == 0 {
			events = o.Trace.Events()
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		if err := obs.WriteJSONL(w, events); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
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

// writeCheckpoint persists the post-step state (writeFileDurably), so
// a crash mid-write never leaves a truncated checkpoint behind.
func writeCheckpoint(prefix string, step int, st *dtd.State) error {
	return writeFileDurably(checkpointPath(prefix, step), func(w io.Writer) error { return dtd.WriteState(w, st) })
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
