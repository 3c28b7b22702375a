// Command benchmark is the repository's one outside-in benchmark. It
// generates a workload's inputs from a seed, drives the system through
// its public entry points — dismastd.Stream, core.NewStepJob/RunWorker
// over a loopback TCP cluster, the worker -serve-http binary over HTTP
// — times those calls, checks the outputs against a reference, and
// prints every metric by name with its unit. The last line of standard
// output is the JSON object the contract in BENCHMARK.json describes.
//
// Run it through benchmark/run.sh, which builds this program and
// cmd/worker before any timer starts. See benchmark/README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

type config struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	scale     float64 // tests only: shrinks inputs, repetitions and windows
	outDir    string
	workerBin string
	record    string
}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg config
	var trace int
	var compare, summary bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: bulk_nnz, dist_inproc, dist_tcp, serve_write or serve_read")
	flag.Uint64Var(&cfg.seed, "seed", 42, "input-generation seed; the program under test keeps its own default seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1: traced run — per-layer metrics and a span file instead of the end-to-end metrics")
	flag.Float64Var(&cfg.scale, "scale", 1, "tests only: shrink inputs by this factor")
	flag.StringVar(&cfg.outDir, "out", "benchmark/out", "directory for result files, span files and temporary server state")
	flag.StringVar(&cfg.workerBin, "worker", "", "path to the built cmd/worker binary (serving workloads and serving probes)")
	flag.StringVar(&cfg.record, "record", "", "also append the result as one line to this JSONL file, the input of -compare")
	flag.BoolVar(&compare, "compare", false, "compare two JSONL result files: -compare a.jsonl b.jsonl")
	flag.BoolVar(&summary, "summary", false, "print the table of the result files in -out and exit")
	flag.Parse()

	if summary {
		if err := summarize(os.Stdout, cfg.outDir); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		return 0
	}
	if compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two JSONL result files")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	cfg.trace = trace != 0
	if _, ok := workloadByName(cfg.workload); !ok || cfg.seconds <= 0 || cfg.scale <= 0 || flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "benchmark: need -workload (one of %v), positive -seconds, no positional arguments\n", workloadNames())
		return 2
	}
	needsWorker := cfg.trace || cfg.workload == wlServeWrite || cfg.workload == wlServeRead
	if needsWorker {
		if _, err := os.Stat(cfg.workerBin); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: -worker must name the built cmd/worker binary: %v\n", err)
			return 2
		}
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}

	// Load sizing: two cores' worth of scheduler for the ranks and the
	// clients, whatever the machine has.
	runtime.GOMAXPROCS(2)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killLiveServers()
		os.Exit(130)
	}()

	res, rec, err := runWorkload(cfg)
	killLiveServers() // nothing should be left; this is the backstop
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", cfg.workload, err)
		return 1
	}
	if rec != nil {
		path := filepath.Join(cfg.outDir, cfg.workload+".trace.jsonl")
		if err := rec.writeJSONL(path); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
		res.Notes["spans"] = fmt.Sprintf("%d spans in %s", len(rec.spans), path)
	}
	if err := res.writeFile(cfg.outDir); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		return 1
	}
	if cfg.record != "" {
		if err := res.appendRecord(cfg.record); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	res.summary(os.Stderr)
	fmt.Println(res.contractLine())
	return 0
}

// runWorkload runs one workload and returns its finished result and,
// on a traced run, the recorder holding its spans.
func runWorkload(cfg config) (*result, *recorder, error) {
	var rec *recorder
	if cfg.trace {
		rec = newRecorder(cfg.workload)
	}
	var res *result
	var err error
	switch cfg.workload {
	case wlBulk, wlDistInproc, wlDistTCP:
		res, err = runStream(cfg, rec)
	case wlServeWrite, wlServeRead:
		res, err = runServe(cfg, rec)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		return nil, nil, err
	}
	if err := res.finish(); err != nil {
		return nil, nil, err
	}
	return res, rec, nil
}

func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}
