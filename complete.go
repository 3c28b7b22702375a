package dismastd

import (
	"fmt"

	"dismastd/internal/completion"
	"dismastd/internal/partition"
)

// CompletionOptions configures tensor completion (fitting the observed
// entries only; unobserved cells are treated as missing, not zero).
type CompletionOptions struct {
	// Rank is the number of CP components. Required.
	Rank int
	// MaxIters bounds the ALS sweeps. Default (0) 30; a negative value
	// is an error.
	MaxIters int
	// Tol stops iteration when the relative RMSE change falls below it.
	// Default 1e-6.
	Tol float64
	// Lambda is the ridge regulariser keeping sparsely observed rows
	// well-posed. Default 1e-3.
	Lambda float64
	// Seed makes runs reproducible. Default 1.
	Seed uint64
	// Workers is the size of the in-process cluster the fit runs on;
	// 0 or 1 (default) is one rank, and a negative value is an error.
	// The result is identical bit for bit at every size — completion
	// has no cross-row reductions to reorder.
	Workers int
	// Parts is the number of tensor partitions per mode; defaults (0)
	// to Workers, and a negative value is an error.
	Parts int
	// Partitioner chooses GTP or MTP.
	Partitioner Partitioner
	// Threads sizes the shared-memory pool each worker runs on. The
	// default (0) is max(1, GOMAXPROCS/Workers), as for Options.Threads;
	// 1 means sequential. Results are bitwise identical at every value.
	Threads int
}

func (o CompletionOptions) internal() (completion.DistributedOptions, error) {
	if o.Workers < 0 {
		return completion.DistributedOptions{}, fmt.Errorf("dismastd: Workers must be positive, got %d", o.Workers)
	}
	if o.MaxIters < 0 || o.Parts < 0 {
		return completion.DistributedOptions{}, fmt.Errorf("dismastd: MaxIters and Parts must be non-negative, got %d and %d", o.MaxIters, o.Parts)
	}
	workers, threads := max(o.Workers, 1), o.Threads
	if threads == 0 {
		threads = defaultThreads(workers)
	}
	return completion.DistributedOptions{
		Options: completion.Options{Rank: o.Rank, MaxIters: o.MaxIters, Tol: o.Tol, Lambda: o.Lambda, Seed: o.Seed, Threads: threads},
		Workers: workers, Parts: o.Parts, Method: partition.Method(o.Partitioner),
	}, nil
}

// CompletionResult reports a completion fit.
type CompletionResult struct {
	Factors []*Dense
	Iters   int
	RMSE    float64 // over the observed (training) entries
}

// Complete fits the Kruskal model to x's observed entries — the
// recommendation setting of the paper's introduction, where missing
// ratings are predicted from the latent factors with Predict. Unlike
// Decompose, unobserved cells do not pull predictions toward zero.
// The fit runs on an in-process cluster of Workers ranks.
func Complete(x *Tensor, opts CompletionOptions) (*CompletionResult, error) {
	o, err := opts.internal()
	if err != nil {
		return nil, err
	}
	res, err := completion.DecomposeDistributed(x, o)
	if err != nil {
		return nil, err
	}
	return &CompletionResult{Factors: res.Factors, Iters: res.Iters, RMSE: res.RMSE}, nil
}

// CompleteNext advances a completion model along a multi-aspect stream:
// the previous result's factors are extended to the new snapshot's
// (grown) dims and refined by warm-started sweeps over its
// observations, on an in-process cluster of Workers ranks like
// Complete. prev is not modified.
func CompleteNext(prev *CompletionResult, snapshot *Tensor, opts CompletionOptions) (*CompletionResult, error) {
	o, err := opts.internal()
	if err != nil {
		return nil, err
	}
	res, err := completion.StreamStep(prev.Factors, snapshot, o)
	if err != nil {
		return nil, err
	}
	return &CompletionResult{Factors: res.Factors, Iters: res.Iters, RMSE: res.RMSE}, nil
}

// PredictionRMSE evaluates factors against a set of held-out observed
// entries: √(Σ (x − prediction)² / n).
func PredictionRMSE(heldout *Tensor, factors []*Dense) float64 {
	return completion.RMSE(heldout, factors)
}
