package dismastd

import (
	"dismastd/internal/completion"
	"dismastd/internal/partition"
)

// CompletionOptions configures tensor completion (fitting the observed
// entries only; unobserved cells are treated as missing, not zero).
type CompletionOptions struct {
	// Rank is the number of CP components. Required.
	Rank int
	// MaxIters bounds the ALS sweeps. Default 30.
	MaxIters int
	// Tol stops iteration when the relative RMSE change falls below it.
	// Default 1e-6.
	Tol float64
	// Lambda is the ridge regulariser keeping sparsely observed rows
	// well-posed. Default 1e-3.
	Lambda float64
	// Seed makes runs reproducible. Default 1.
	Seed uint64
	// Workers selects the engine: 0 or 1 (default) runs centralized
	// weighted ALS; >1 distributes the fit across an in-process cluster
	// (the result is identical bit for bit — completion has no
	// cross-row reductions to reorder).
	Workers int
	// Parts is the number of tensor partitions per mode for the
	// distributed engine; defaults to Workers.
	Parts int
	// Partitioner chooses GTP or MTP for the distributed engine.
	Partitioner Partitioner
	// Threads sizes the shared-memory pool the sweep (or, with
	// Workers > 1, each worker) runs on. 0 or 1 means sequential;
	// results are bitwise identical at every value.
	Threads int
}

func (o CompletionOptions) internal() completion.Options {
	return completion.Options{Rank: o.Rank, MaxIters: o.MaxIters, Tol: o.Tol, Lambda: o.Lambda, Seed: o.Seed, Threads: o.Threads}
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
// With Workers > 1 the fit runs on an in-process worker cluster.
func Complete(x *Tensor, opts CompletionOptions) (*CompletionResult, error) {
	iopts := opts.internal()
	if opts.Workers > 1 {
		res, err := completion.DecomposeDistributed(x, completion.DistributedOptions{
			Options: iopts, Workers: opts.Workers, Parts: opts.Parts,
			Method: partition.Method(opts.Partitioner),
		})
		if err != nil {
			return nil, err
		}
		return &CompletionResult{Factors: res.Factors, Iters: res.Iters, RMSE: res.RMSE}, nil
	}
	res, err := completion.Decompose(x, iopts)
	if err != nil {
		return nil, err
	}
	return &CompletionResult{Factors: res.Factors, Iters: res.Iters, RMSE: res.RMSE}, nil
}

// CompleteNext advances a completion model along a multi-aspect stream:
// the previous result's factors are extended to the new snapshot's
// (grown) dims and refined by warm-started sweeps over its
// observations. prev is not modified.
func CompleteNext(prev *CompletionResult, snapshot *Tensor, opts CompletionOptions) (*CompletionResult, error) {
	res, err := completion.StreamStep(prev.Factors, snapshot, opts.internal())
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
