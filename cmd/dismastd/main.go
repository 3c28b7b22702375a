// Command dismastd decomposes a multi-aspect streaming tensor given as
// a sequence of nested snapshot files (text or binary tensor format).
// The first snapshot is decomposed with full CP-ALS; each subsequent
// snapshot is an incremental DisMASTD step that touches only the new
// data.
//
// Usage:
//
//	dismastd -rank 10 -workers 8 -method mtp snap75.tsv snap80.tsv snap100.tsv
//	dismastd -rank 10 single.tsv            # static decomposition
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"dismastd"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "dismastd: %v\n", err)
		os.Exit(1)
	}
}

func loadTensor(path string) (*dismastd.Tensor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dismastd.ReadTensor(f)
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dismastd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rank := fs.Int("rank", 10, "number of CP components R")
	iters := fs.Int("iters", 10, "maximum ALS sweeps per snapshot")
	mu := fs.Float64("mu", 0.8, "forgetting factor in (0, 1]")
	workers := fs.Int("workers", 1, "in-process cluster size every snapshot runs DisMASTD on (1 = centralized DTD, bit for bit)")
	solver := fs.String("solver", "exact", "least-squares strategy: exact (full MTTKRP) or sampled (leverage-score sketch, sublinear in nnz)")
	parts := fs.Int("parts", 0, "tensor partitions per mode (default = workers)")
	method := fs.String("method", "gtp", "partitioning heuristic: gtp or mtp (both tensor-stationary: entries stay put, factor rows travel)")
	seed := fs.Uint64("seed", 1, "initialisation seed")
	ckpt := fs.String("checkpoint", "", "write the final stream state to this path")
	resume := fs.String("resume", "", "resume from a state previously written with -checkpoint")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("no snapshot files given")
	}
	var partitioner dismastd.Partitioner
	switch strings.ToLower(*method) {
	case "gtp":
		partitioner = dismastd.GTP
	case "mtp":
		partitioner = dismastd.MTP
	default:
		return fmt.Errorf("unknown method %q (gtp or mtp)", *method)
	}

	// The in-process workers share GOMAXPROCS: each runs its numeric
	// kernels on max(1, GOMAXPROCS/workers) threads. Results are
	// identical at every thread count.
	opts := dismastd.Options{
		Rank: *rank, MaxIters: *iters, ForgettingFactor: *mu, Seed: *seed,
		Workers: *workers, Parts: *parts, Partitioner: partitioner,
		Threads: max(1, runtime.GOMAXPROCS(0)/max(1, *workers)), Solver: *solver,
	}
	stream := dismastd.NewStream(opts)
	if *resume != "" {
		f, err := os.Open(*resume)
		if err != nil {
			return fmt.Errorf("open resume state: %w", err)
		}
		stream, err = dismastd.ResumeStream(f, opts)
		f.Close()
		if err != nil {
			return fmt.Errorf("resume: %w", err)
		}
	}

	for _, path := range fs.Args() {
		t, err := loadTensor(path)
		if err != nil {
			return fmt.Errorf("load %s: %w", path, err)
		}
		rep, err := stream.Ingest(t)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		fmt.Fprintf(stdout, "snapshot %d  %-24s dims=%v nnz=%d touched=%d iters=%d loss=%.6g wall=%s",
			rep.Snapshot, path, t.Dims, t.NNZ(), rep.EntriesTouched, rep.Iters, rep.Loss, rep.Wall.Round(time.Microsecond))
		if rep.BytesOnWire > 0 {
			fmt.Fprintf(stdout, " traffic=%dB", rep.BytesOnWire)
		}
		fmt.Fprintln(stdout)
	}

	fmt.Fprintf(stdout, "final factors:")
	for m, f := range stream.Factors() {
		fmt.Fprintf(stdout, " mode%d=%dx%d", m, f.Rows, f.Cols)
	}
	fmt.Fprintln(stdout)

	if *ckpt != "" {
		f, err := os.Create(*ckpt)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := stream.Save(f); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "dismastd: state checkpointed to %s\n", *ckpt)
	}
	return nil
}
