// Package dmsmg implements the experimental baseline of Section V: the
// medium-grained distributed static tensor decomposition of Smith &
// Karypis (DMS-MG), extended to the paper's framework with GTP or MTP
// partitioning (the paper's DMS-MG-GTP and DMS-MG-MTP variants).
//
// Being a static method, it decomposes every streaming snapshot from
// scratch: each step costs Θ(nnz(X)·R) per iteration, against
// DisMASTD's Θ(nnz(X \ X̃)·R) — the gap Fig. 5 measures. The
// distributed machinery (per-mode 1-D entry distribution, Gram
// all-reduce, factor-row exchange) is shared with internal/core via
// internal/dplan, so the two methods differ only in the algorithm, not
// the runtime.
package dmsmg

import (
	"errors"
	"fmt"

	"dismastd/internal/cluster"
	"dismastd/internal/core"
	"dismastd/internal/dtd"
	"dismastd/internal/mat"
	"dismastd/internal/partition"
	"dismastd/internal/tensor"
)

// Options configures a distributed static decomposition.
type Options struct {
	Rank     int     // R (required, > 0)
	MaxIters int     // ALS sweeps; default 10
	Tol      float64 // relative loss-change stop threshold; default 1e-6
	Seed     uint64  // factor initialisation seed; default 1

	Workers int              // cluster size M (required, > 0)
	Parts   int              // partitions per mode; default Workers
	Method  partition.Method // GTP or MTP

	// Threads sizes each worker's shared-memory pool (see internal/par).
	// 0 or 1 means sequential; results are bitwise identical at every
	// value.
	Threads int
}

// Stats reports one distributed static decomposition.
type Stats struct {
	Iters      int
	Loss       float64 // final ‖X − [[A]]‖_F
	Fit        float64 // 1 − Loss/‖X‖_F
	LossTrace  []float64
	NNZ        int // entries processed per iteration — the whole tensor
	Imbalance  []float64
	Cluster    *cluster.RunStats
	SetupBytes int64
}

// ErrEmptyTensor reports decomposition of a tensor without entries.
var ErrEmptyTensor = errors.New("dmsmg: tensor has no non-zero entries")

// Decompose runs the distributed static CP-ALS over x from scratch and
// returns the factors. Static ALS is the Eq. (5) sweep with nothing to
// forget, so this is a core.Step from the empty state: the complement is
// the whole tensor, every row is a growth row, and each mode's Gram
// all-reduce carries the one R×R block a static method has.
func Decompose(x *tensor.Tensor, o Options) ([]*mat.Dense, *Stats, error) {
	if o.Rank <= 0 {
		return nil, nil, fmt.Errorf("dmsmg: rank must be positive, got %d", o.Rank)
	}
	if x.NNZ() == 0 {
		return nil, nil, ErrEmptyTensor
	}
	st, stats, err := core.Step(dtd.EmptyState(x.Order(), o.Rank), x, core.Options{
		Rank: o.Rank, MaxIters: o.MaxIters, Tol: o.Tol, Seed: o.Seed,
		Workers: o.Workers, Parts: o.Parts, Method: o.Method,
		Threads: o.Threads,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("dmsmg: %w", err)
	}
	return st.Factors, &Stats{
		Iters:      stats.Iters,
		Loss:       stats.Loss,
		Fit:        1 - stats.Loss/x.Norm(),
		LossTrace:  stats.LossTrace,
		NNZ:        stats.ComplementNNZ,
		Imbalance:  stats.Imbalance,
		Cluster:    stats.Cluster,
		SetupBytes: stats.SetupBytes,
	}, nil
}
