// Command dismastd-bench regenerates the paper's evaluation tables and
// figures (Section V) at a configurable scale and prints the rows.
//
// Usage:
//
//	dismastd-bench -exp all -nnz 100000 -workers 15 > results.txt
//	dismastd-bench -exp fig5 -datasets netflix,synthetic
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"dismastd/internal/bench"
	"dismastd/internal/dataset"
)

var kinds = map[string]dataset.Kind{
	"clothing":  dataset.Clothing,
	"book":      dataset.Book,
	"netflix":   dataset.Netflix,
	"synthetic": dataset.Synthetic,
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "dismastd-bench: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dismastd-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment: all, table3, table4, fig5, fig6, fig7, comm, fit, phases, sampled")
	jsonOut := fs.String("json", "", "for -exp phases: also write the reports as JSON to this path")
	nnz := fs.Int("nnz", 100000, "target nnz per generated dataset")
	rank := fs.Int("rank", 10, "CP rank R (paper: 10)")
	iters := fs.Int("iters", 10, "max ALS sweeps (paper: 10)")
	mu := fs.Float64("mu", 0.8, "forgetting factor (paper: 0.8)")
	workers := fs.Int("workers", 15, "cluster size (paper: 15 nodes)")
	threads := fs.Int("threads", 1, "compute threads per worker (0 = GOMAXPROCS); results are identical at every value")
	seed := fs.Uint64("seed", 42, "generator seed")
	datasets := fs.String("datasets", "", "comma-separated subset (default all four)")
	fitTol := fs.Float64("fit-tol", 0, "for -exp sampled: fail when a sampled fit trails exact by more than this (0 = report only)")
	svgDir := fs.String("svgdir", "", "also render the figures as SVG charts into this directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	writeSVGs := func(files map[string]string) error {
		if *svgDir == "" {
			return nil
		}
		if err := os.MkdirAll(*svgDir, 0o755); err != nil {
			return err
		}
		for name, doc := range files {
			if err := os.WriteFile(filepath.Join(*svgDir, name), []byte(doc), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "dismastd-bench: wrote %s\n", filepath.Join(*svgDir, name))
		}
		return nil
	}

	nthreads := *threads
	if nthreads == 0 {
		nthreads = runtime.GOMAXPROCS(0)
	}
	cfg := bench.Config{
		TargetNNZ: *nnz, Rank: *rank, MaxIters: *iters, Mu: *mu,
		Workers: *workers, Threads: nthreads, Seed: *seed,
	}
	if *datasets != "" {
		for _, name := range strings.Split(*datasets, ",") {
			k, ok := kinds[strings.ToLower(strings.TrimSpace(name))]
			if !ok {
				return fmt.Errorf("unknown dataset %q", name)
			}
			cfg.Datasets = append(cfg.Datasets, k)
		}
	}

	want := func(name string) bool { return *exp == "all" || *exp == name }
	ran := false

	if want("table3") {
		ran = true
		fmt.Fprintln(stdout, "== Table III: dataset statistics ==")
		fmt.Fprintln(stdout, bench.FormatTable3(bench.Table3(cfg)))
	}
	if want("table4") {
		ran = true
		fmt.Fprintln(stdout, "== Table IV: stddev of nnz across tensor partitions (CV, mode-averaged) ==")
		fmt.Fprintln(stdout, bench.FormatTable4(bench.Table4(cfg)))
	}
	if want("fig5") {
		ran = true
		fmt.Fprintln(stdout, "== Fig. 5: running time per iteration along the multi-aspect stream ==")
		points, err := bench.Fig5(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, bench.FormatFig5(points))
		if err := writeSVGs(bench.Fig5SVG(points)); err != nil {
			return err
		}
	}
	if want("fig6") {
		ran = true
		fmt.Fprintln(stdout, "== Fig. 6: running time per iteration vs number of partitions ==")
		points, err := bench.Fig6(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, bench.FormatFig6(points))
		if err := writeSVGs(bench.Fig6SVG(points)); err != nil {
			return err
		}
	}
	if want("fig7") {
		ran = true
		fmt.Fprintln(stdout, "== Fig. 7: running time per iteration vs number of nodes ==")
		points, err := bench.Fig7(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, bench.FormatFig7(points))
		if err := writeSVGs(bench.Fig7SVG(points)); err != nil {
			return err
		}
	}
	if want("comm") {
		ran = true
		fmt.Fprintln(stdout, "== Theorem 4 check: measured vs predicted communication (extension) ==")
		points, err := bench.Comm(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, bench.FormatComm(points))
	}
	if want("fit") {
		ran = true
		fmt.Fprintln(stdout, "== Fit quality: incremental DisMASTD vs from-scratch recompute (extension) ==")
		points, err := bench.Fit(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, bench.FormatFit(points))
	}
	if want("phases") {
		ran = true
		fmt.Fprintln(stdout, "== Phase breakdown: per-rank wall time by phase (observability extension) ==")
		reports, err := bench.Phases(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, bench.FormatPhases(reports))
		if *jsonOut != "" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				return err
			}
			if err := bench.WritePhasesJSON(f, reports); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Fprintf(stderr, "dismastd-bench: wrote %s\n", *jsonOut)
		}
	}
	if want("sampled") {
		ran = true
		fmt.Fprintln(stdout, "== Randomized solver: exact vs leverage-score sampled ALS (extension) ==")
		points, err := bench.SampledGap(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, bench.FormatSampled(points))
		if *fitTol > 0 {
			for _, p := range points {
				if p.Samples != 0 && p.Gap > *fitTol {
					return fmt.Errorf("sampled fit gap %.4f on %s exceeds -fit-tol %.4f", p.Gap, p.Dataset, *fitTol)
				}
			}
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	return nil
}
