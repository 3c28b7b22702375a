// Package dtd implements the Dynamic Tensor Decomposition of
// Algorithm 1 for multi-aspect streaming tensors of arbitrary order —
// the centralized algorithm DisMASTD distributes.
//
// Given the previous snapshot's CP factors {Ã_n} and the new snapshot
// X, DTD splits each factor into an old-region block A_n^(0) (rows
// 0..I_n) initialised from Ã_n and a growth block A_n^(1) (rows
// I_n..I_n+d_n) initialised randomly, then alternates the update rules
// of Eq. (5):
//
//	A_n^(0) ← [ μ·Ã_n·(∗_{k≠n} Ã_kᵀA_k^(0)) + M_n^(0) ] · D_0⁻¹
//	A_n^(1) ←                               M_n^(1)   · D_1⁻¹
//	D_1 = ∗_{k≠n}(A_kᵀA_k),  D_0 = D_1 − (1−μ)·∗_{k≠n}(A_k^(0)ᵀA_k^(0))
//
// where M_n is the MTTKRP of the relative complement X \ X̃ with the
// full stacked factors — the only place the tensor data appears, which
// is why the old snapshot's entries never need to be touched again.
//
// The sweep is written once, as the Sweep engine (sweep.go): Step binds
// it as a world of one, internal/core binds it per rank of a cluster,
// and Updater applies the same denominators row by row between sweeps.
// Static CP-ALS is the same sweep from an empty prior (Init; the DMS-MG
// baseline distributes it as a core.Step from EmptyState).
package dtd

import (
	"errors"
	"fmt"
	"math"

	"dismastd/internal/mat"
	"dismastd/internal/mttkrp"
	"dismastd/internal/obs"
	"dismastd/internal/sample"
	"dismastd/internal/tensor"
)

// Options controls a DTD streaming step.
type Options struct {
	Rank     int     // R (required, > 0)
	MaxIters int     // maximum ALS sweeps per step; default 10 (the paper's setting)
	Tol      float64 // stop when the relative loss change falls below Tol; default 1e-6
	Mu       float64 // forgetting factor μ in (0, 1]; default 0.8 (the paper's setting)
	Seed     uint64  // growth-block initialisation seed; default 1

	// Threads sizes the shared-memory pool the sweep kernels run on.
	// 0 or 1 means sequential. Results are bitwise identical at every
	// value (see internal/par).
	Threads int

	// Solver selects the per-mode least-squares strategy: sample.Exact
	// (default) runs the full complement MTTKRP and the exact Gram
	// chains; sample.Sampled replaces the MTTKRP and the D₁ denominator
	// with the leverage-score sketch of internal/sample (the exact
	// R×R chains still supply the μ-weighted history terms). Bitwise
	// reproducible per seed at every thread count.
	// The sketch draws sample.DefaultSamples rows per mode.
	Solver sample.Kind

	// Obs receives the step's phase spans and counters. May be nil; all
	// handles are nil-safe, so instrumentation costs nothing when unset.
	Obs *obs.Obs
}

func (o *Options) withDefaults() (Options, error) {
	opts := *o
	if opts.Rank <= 0 {
		return opts, fmt.Errorf("dtd: rank must be positive, got %d", opts.Rank)
	}
	if opts.MaxIters <= 0 {
		opts.MaxIters = 10
	}
	if opts.Tol < 0 {
		return opts, fmt.Errorf("dtd: negative tolerance %v", opts.Tol)
	}
	if opts.Tol == 0 {
		opts.Tol = 1e-6
	}
	if opts.Mu == 0 {
		opts.Mu = 0.8
	}
	if opts.Mu < 0 || opts.Mu > 1 {
		return opts, fmt.Errorf("dtd: forgetting factor %v outside (0, 1]", opts.Mu)
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Threads < 0 {
		return opts, fmt.Errorf("dtd: negative thread count %d", opts.Threads)
	}
	if opts.Threads == 0 {
		opts.Threads = 1
	}
	if opts.Solver != sample.Exact && opts.Solver != sample.Sampled {
		return opts, fmt.Errorf("dtd: unknown solver %v", opts.Solver)
	}
	return opts, nil
}

// State is the decomposition carried between streaming steps: the
// snapshot's mode sizes and one full factor matrix per mode.
type State struct {
	Dims    []int
	Factors []*mat.Dense

	// grams, when set, holds Factors[m]ᵀFactors[m] per mode, bitwise
	// mat.Gram's: Updater.Anchor carries the Grams it took at Reset so
	// the next sweep's NewSweep does not take them again.
	grams []*mat.Dense
}

// Clone returns a deep copy of the state.
func (s *State) Clone() *State {
	out := &State{Dims: append([]int(nil), s.Dims...)}
	for _, f := range s.Factors {
		out.Factors = append(out.Factors, f.Clone())
	}
	return out
}

// Stats reports what one streaming step did.
type Stats struct {
	Iters         int
	Loss          float64         // final √L of Eq. (4)
	LossTrace     []float64       // loss after each sweep
	ComplementNNZ int             // nnz(X \ X̃) — the data the step touched
	Phases        []obs.PhaseStat // per-phase wall time, when Options.Obs is set
}

// ErrDimsMismatch reports a snapshot incompatible with the previous
// state (wrong order, or a mode that shrank).
var ErrDimsMismatch = errors.New("dtd: snapshot dims incompatible with previous state")

// ErrEmptyTensor reports static CP-ALS — a step from a prior that spans
// no cell, such as EmptyState — of a snapshot without entries.
var ErrEmptyTensor = errors.New("dtd: tensor has no non-zero entries")

// Init decomposes the first snapshot and returns the initial streaming
// state. Static CP-ALS is Eq. (5) with nothing to forget, so this is a
// Step from the empty state: every entry in the complement, every row a
// growth row, D₁ the plain Gram Hadamard product.
func Init(x *tensor.Tensor, o Options) (*State, *Stats, error) {
	opts, err := o.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	return Step(EmptyState(x.Order(), opts.Rank), x, o)
}

// Step advances the decomposition from prev to the new snapshot,
// touching only the relative complement of the two snapshots
// (Algorithm 1). prev is not modified. It is the world-of-one binding of
// the Sweep engine: every row owned, kernels over the whole complement,
// no communication.
func Step(prev *State, snapshot *tensor.Tensor, o Options) (*State, *Stats, error) {
	s, err := NewSweep(prev, snapshot, o)
	if err != nil {
		return nil, nil, err
	}
	e, err := s.bindSolo()
	if err != nil {
		return nil, nil, err
	}
	defer e.Close()
	if err := e.Run(nil); err != nil {
		return nil, nil, err
	}
	trace := e.LossTrace()
	stats := &Stats{Iters: len(trace), Loss: trace[len(trace)-1], LossTrace: trace, ComplementNNZ: s.comp.NNZ()}
	if ob := s.opts.Obs; ob != nil && ob.Trace != nil {
		stats.Phases = obs.AggregatePhases(ob.Trace.Phases())
	}
	return &State{Dims: s.newDims, Factors: e.Factors()}, stats, nil
}

// LossAgainst evaluates Eq. (4) definitionally — recomputing every term
// from the raw tensors and factors with no reuse. Used to validate the
// reuse-based loss and by the loss-reuse ablation bench.
func LossAgainst(prev *State, snapshot *tensor.Tensor, cur *State, mu float64) float64 {
	comp := snapshot.Complement(prev.Dims)
	n := snapshot.Order()
	// μ‖[[Ã]] − [[A^(0)]]‖².
	gramsT := make([]*mat.Dense, n)
	grams0 := make([]*mat.Dense, n)
	cross := make([]*mat.Dense, n)
	a0s := make([]*mat.Dense, n)
	for m := 0; m < n; m++ {
		a0 := cur.Factors[m].SliceRows(0, prev.Dims[m])
		a0s[m] = a0
		gramsT[m] = mat.Gram(prev.Factors[m])
		grams0[m] = mat.Gram(a0)
		cross[m] = mat.CrossGram(prev.Factors[m], a0)
	}
	oldTerm := mu * (mat.SumAll(mat.HadamardAll(gramsT...)) +
		mat.SumAll(mat.HadamardAll(grams0...)) -
		2*mat.SumAll(mat.HadamardAll(cross...)))

	// Σ_{i≠0} ‖X^i − [[A…]]‖² = ‖X\X̃‖² − 2<X\X̃, Y> + (‖Y‖² − ‖Y^(0)‖²).
	gramsF := make([]*mat.Dense, n)
	for m := 0; m < n; m++ {
		gramsF[m] = mat.Gram(cur.Factors[m])
	}
	inner := mttkrp.InnerProduct(comp, cur.Factors)
	newTerm := comp.NormSq() - 2*inner +
		mat.SumAll(mat.HadamardAll(gramsF...)) - mat.SumAll(mat.HadamardAll(grams0...))

	l := oldTerm + newTerm
	if l < 0 {
		l = 0
	}
	return math.Sqrt(l)
}
