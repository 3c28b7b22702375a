package dismastd

import (
	"fmt"

	"dismastd/internal/completion"
	"dismastd/internal/par"
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
	// Threads sizes the shared-memory pool the fit runs on. The default
	// (0) is GOMAXPROCS; 1 means sequential. Results are bitwise
	// identical at every value.
	Threads int
}

func (o CompletionOptions) internal() (completion.Options, error) {
	if o.MaxIters < 0 {
		return completion.Options{}, fmt.Errorf("dismastd: MaxIters must be non-negative, got %d", o.MaxIters)
	}
	threads := o.Threads
	if threads == 0 {
		threads = par.ThreadsPerRank(1)
	}
	return completion.Options{Rank: o.Rank, MaxIters: o.MaxIters, Tol: o.Tol, Lambda: o.Lambda, Seed: o.Seed, Threads: threads}, nil
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
// The fit runs in this process, on a pool of Threads threads.
func Complete(x *Tensor, opts CompletionOptions) (*CompletionResult, error) {
	o, err := opts.internal()
	if err != nil {
		return nil, err
	}
	res, err := completion.Decompose(x, o)
	if err != nil {
		return nil, err
	}
	return &CompletionResult{Factors: res.Factors, Iters: res.Iters, RMSE: res.RMSE}, nil
}

// CompleteNext advances a completion model along a multi-aspect stream:
// the previous result's factors are extended to the new snapshot's
// (grown) dims and refined by warm-started sweeps over its
// observations, in this process like Complete. prev is not modified.
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
