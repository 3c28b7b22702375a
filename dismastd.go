// Package dismastd is a from-scratch Go implementation of DisMASTD
// (Yang, Gao, Shen, Zheng, Chen: "DisMASTD: An Efficient Distributed
// Multi-Aspect Streaming Tensor Decomposition", ICDE 2021): CP
// decomposition of sparse tensors that grow in every mode over time,
// computed incrementally — only the newly arrived data is touched — and
// distributed across workers with load-balanced tensor partitioning.
//
// The essential flow:
//
//	b := dismastd.NewBuilder([]int{users, products, timeSlots})
//	b.Append([]int{u, p, t}, rating)
//	snapshot := b.Build()
//
//	stream := dismastd.NewStream(dismastd.Options{Rank: 10, Workers: 8})
//	report, err := stream.Ingest(snapshot)     // first snapshot: full CP-ALS
//	...
//	report, err = stream.Ingest(nextSnapshot)  // later: incremental DisMASTD step
//	score := stream.Predict([]int{u, p, t})    // reconstruct any cell
//
// Snapshots must nest: each one contains the previous as a prefix
// sub-tensor (the multi-aspect streaming model). Every snapshot runs
// the distributed algorithm on an in-process cluster of Workers ranks
// with GTP or MTP partitioning; at 1 (the default) that is the
// centralized dynamic algorithm (DTD) bit for bit.
//
// The building blocks are exported too: static CP-ALS (Decompose), the
// partitioning heuristics (PartitionSlices), paper-shaped dataset
// generators (GenerateDataset), and tensor I/O. See DESIGN.md for the
// package map and EXPERIMENTS.md for the reproduced evaluation.
package dismastd

import (
	"fmt"
	"io"

	"dismastd/internal/core"
	"dismastd/internal/cp"
	"dismastd/internal/dataset"
	"dismastd/internal/dtd"
	"dismastd/internal/mat"
	"dismastd/internal/par"
	"dismastd/internal/partition"
	"dismastd/internal/tensor"
)

// Tensor is a sparse tensor of arbitrary order in sorted coordinate
// format. Build one with NewBuilder or read one with ReadTensor.
type Tensor = tensor.Tensor

// Builder accumulates coordinate/value entries and produces a canonical
// Tensor (sorted, duplicates summed, zeros dropped).
type Builder = tensor.Builder

// Sequence is a validated multi-aspect streaming tensor sequence: a
// full tensor plus per-step mode sizes where each snapshot nests inside
// the next.
type Sequence = tensor.Sequence

// Dense is a row-major dense matrix; factor matrices are Dense with one
// row per mode index and Rank columns.
type Dense = mat.Dense

// NewBuilder returns a Builder for a tensor with the given mode sizes.
func NewBuilder(dims []int) *Builder { return tensor.NewBuilder(dims) }

// NewSequence validates the step dims and wraps full as a streaming
// sequence.
func NewSequence(full *Tensor, steps [][]int) (*Sequence, error) {
	return tensor.NewSequence(full, steps)
}

// ReadTensor reads a tensor in either format, told apart by its first
// bytes: the binary format WriteTensorBinary writes, or the TSV text
// format WriteTensorText writes.
func ReadTensor(r io.Reader) (*Tensor, error) { return tensor.Read(r) }

// WriteTensorText writes the TSV tensor format: a "dims\td1...\tdN"
// header followed by one "i1\t...\tiN\tvalue" line per entry.
func WriteTensorText(w io.Writer, t *Tensor) error { return t.WriteText(w) }

// WriteTensorBinary writes the binary tensor format: a checksummed
// envelope around fixed-width dims, coordinates and values.
func WriteTensorBinary(w io.Writer, t *Tensor) error { return t.WriteBinary(w) }

// Partitioner selects a load-balancing heuristic for distributing
// tensor slices across workers (Section IV-A of the paper).
type Partitioner int

const (
	// GTP is Greedy Tensor Partitioning: contiguous slice runs filled
	// to a target size (Algorithm 2).
	GTP Partitioner = Partitioner(partition.GTPMethod)
	// MTP is Max-min Fit Tensor Partitioning: slices sorted by
	// decreasing weight, each placed on the lightest partition
	// (Algorithm 3). Preferred on skewed data.
	MTP Partitioner = Partitioner(partition.MTPMethod)
)

func (p Partitioner) String() string { return partition.Method(p).String() }

// PartitionSlices partitions a slice-weight histogram (for example
// Tensor.SliceNNZ of one mode) into p balanced groups and returns the
// per-slice partition assignment and per-partition loads.
func PartitionSlices(weights []int64, p int, method Partitioner) (assign []int32, loads []int64) {
	plan := partition.Partition(weights, p, partition.Method(method))
	return plan.Assign, plan.Loads
}

// Imbalance returns stddev(loads)/mean(loads), the balance statistic of
// the paper's Table IV (0 = perfectly balanced).
func Imbalance(loads []int64) float64 { return partition.ImbalanceStdDev(loads) }

// CPResult is a static CP decomposition.
type CPResult struct {
	Factors []*Dense // one I_n x Rank factor per mode
	Iters   int
	Loss    float64 // ‖X − [[A]]‖_F
	Fit     float64 // 1 − Loss/‖X‖_F
}

// Decompose runs static CP-ALS on x — the non-streaming baseline — on
// GOMAXPROCS threads. A maxIters <= 0 selects 50 sweeps. Use NewStream
// for streaming data.
func Decompose(x *Tensor, rank int, maxIters int) (*CPResult, error) {
	if maxIters <= 0 {
		maxIters = 50
	}
	if rank <= 0 {
		return nil, fmt.Errorf("dismastd: rank must be positive, got %d", rank)
	}
	// Static CP-ALS is a one-worker step from the empty state: the path
	// a Stream's first snapshot takes.
	st, stats, err := core.Step(dtd.EmptyState(x.Order(), rank), x, core.Options{
		Rank: rank, MaxIters: maxIters, Workers: 1, Threads: par.ThreadsPerRank(1),
	})
	if err != nil {
		return nil, err
	}
	return &CPResult{Factors: st.Factors, Iters: stats.Iters, Loss: stats.Loss, Fit: 1 - stats.Loss/x.Norm()}, nil
}

// Predict evaluates the Kruskal model at one coordinate:
// Σ_r ∏_k factors[k][idx[k], r]. This is the rating-prediction
// primitive of the paper's recommendation example.
func Predict(factors []*Dense, idx []int) float64 { return cp.Reconstruct(factors, idx) }

// DatasetKind selects one of the paper's four evaluation workloads.
type DatasetKind = dataset.Kind

// Dataset kinds, matching the paper's Table III.
const (
	DatasetClothing  = dataset.Clothing
	DatasetBook      = dataset.Book
	DatasetNetflix   = dataset.Netflix
	DatasetSynthetic = dataset.Synthetic
)

// GenerateDataset synthesises a paper-shaped evaluation tensor with
// approximately targetNNZ entries (see internal/dataset for how the
// published dataset statistics are preserved at reduced scale).
func GenerateDataset(kind DatasetKind, targetNNZ int, seed uint64) *Tensor {
	return dataset.Preset(kind, targetNNZ, seed).Generate()
}

// GrowthSchedule builds the paper's streaming protocol over t: snapshots
// at the given fractions of every mode (PaperGrowth gives 75%..100%).
func GrowthSchedule(t *Tensor, fracs []float64) (*Sequence, error) {
	return dataset.Stream(t, fracs)
}

// PaperGrowth is the growth schedule of the paper's Fig. 5: mode sizes
// at 75% to 100% of the full tensor in 5% steps.
func PaperGrowth() []float64 {
	return append([]float64(nil), dataset.PaperFractions...)
}

func validateIngestTensor(x *Tensor) error {
	if x == nil || x.NNZ() == 0 {
		return fmt.Errorf("dismastd: snapshot has no data")
	}
	return nil
}
