package bench

import (
	"fmt"
	"strings"

	"dismastd/internal/core"
	"dismastd/internal/dataset"
	"dismastd/internal/partition"
)

// Communication-bound experiment (extension beyond the paper's figures):
// Theorem 4 states the per-step communication is O(nnz + MNR² + NIR +
// NdR). This runner sweeps each parameter with the others fixed,
// reports the runtime's *measured* bytes next to the formula's value,
// and the ratio between them — which should stay within a narrow
// constant band if the implementation communicates what the paper says
// it should.

// theoremParams is the paper's simplified setting for one streaming
// step: an N-th order stream whose old modes have size I and grow by
// D, rank R, M workers, and NNZ = nnz(X \ X̃) complement entries.
// Theorem 4 ships as commBytes; the tests hold Theorems 2 and 3 and the
// implementation's two deviations from them (theorems_test.go).
type theoremParams struct {
	N   int  // tensor order
	I   int  // per-mode old size
	D   int  // per-mode growth
	R   int  // CP rank
	M   int  // worker count
	NNZ int  // nnz(X \ X̃)
	MTP bool // partitioner: MTP sorts (I log I), GTP scans (I)
}

// commBytes evaluates Theorem 4, in float64-equivalents transferred per
// step:
//
//	O(nnz + MNR² + NIR + NdR)
//
// — shipping every complement entry to its mode partitions, the
// all-to-all Gram reductions, and the factor rows exchanged among
// partitions.
func commBytes(p theoremParams) float64 {
	n, i, d, r, m := float64(p.N), float64(p.I), float64(p.D), float64(p.R), float64(p.M)
	return float64(p.NNZ) + m*n*r*r + n*i*r + n*d*r
}

// CommPoint is one measured-vs-formula sample.
type CommPoint struct {
	Sweep    string // which parameter this row varies
	NNZ      int
	Rank     int
	Workers  int
	Measured int64   // bytes sent per step (excluding result collection)
	Formula  float64 // Theorem 4 value (float64-equivalents)
	Ratio    float64 // Measured / (8 * Formula)
}

// Comm runs the Theorem 4 sweeps on a Book-shaped tensor.
func Comm(cfg Config) ([]CommPoint, error) {
	cfg = cfg.withDefaults()
	var points []CommPoint

	run := func(sweep string, nnz, rank, workers int) error {
		t := dataset.Preset(dataset.Book, nnz, cfg.Seed).Generate()
		seq, err := dataset.Stream(t, []float64{0.8, 1.0})
		if err != nil {
			return err
		}
		prev, _, err := cfg.step(nil, seq.Snapshot(0), core.Options{Rank: rank, MaxIters: 3, Workers: 1})
		if err != nil {
			return err
		}
		_, stats, err := cfg.step(prev, seq.Snapshot(1), core.Options{
			Rank: rank, MaxIters: cfg.MaxIters, Workers: workers, Method: partition.MTPMethod,
		})
		if err != nil {
			return err
		}
		// Theorem 4's I and d from the actual snapshot dims (averaged
		// per mode, matching the theorem's symmetric simplification).
		var iSum, dSum int
		for m := range t.Dims {
			iSum += seq.Dims(0)[m]
			dSum += seq.Dims(1)[m] - seq.Dims(0)[m]
		}
		params := theoremParams{
			N: t.Order(), I: iSum / t.Order(), D: dSum / t.Order(),
			R: rank, M: workers, NNZ: stats.ComplementNNZ,
		}
		formula := commBytes(params) * float64(cfg.MaxIters)
		measured := stats.Cluster.TotalBytes()
		points = append(points, CommPoint{
			Sweep: sweep, NNZ: nnz, Rank: rank, Workers: workers,
			Measured: measured, Formula: formula,
			Ratio: float64(measured) / (8 * formula),
		})
		return nil
	}

	base := cfg.TargetNNZ
	for _, nnz := range []int{base / 2, base, base * 2} {
		if err := run("nnz", nnz, cfg.Rank, cfg.Workers); err != nil {
			return nil, err
		}
	}
	for _, r := range []int{cfg.Rank / 2, cfg.Rank, cfg.Rank * 2} {
		if r < 1 {
			continue
		}
		if err := run("rank", base, r, cfg.Workers); err != nil {
			return nil, err
		}
	}
	for _, m := range []int{3, cfg.Workers, 2 * cfg.Workers} {
		if err := run("workers", base, cfg.Rank, m); err != nil {
			return nil, err
		}
	}
	return points, nil
}

// FormatComm renders the sweep.
func FormatComm(points []CommPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %8s %5s %8s %14s %14s %8s\n", "sweep", "nnz", "R", "workers", "measured(B)", "theorem4", "ratio")
	for _, p := range points {
		fmt.Fprintf(&b, "%-8s %8d %5d %8d %14d %14.0f %8.3f\n",
			p.Sweep, p.NNZ, p.Rank, p.Workers, p.Measured, p.Formula, p.Ratio)
	}
	return b.String()
}
