// Package dataset synthesises the four evaluation workloads of
// Section V-A (Table III). The paper's real datasets (Amazon Clothing
// and Book reviews, the Netflix Prize ratings) are not redistributable,
// so this package generates tensors with the same *shape*: third-order
// reviewer-product-time ratings with the paper's mode-size ratios and
// the heavy Zipf skew of real review data, plus the uniformly random
// Synthetic tensor. Every property the experiments depend on — the
// skewed (or uniform) distribution of non-zeros across slices, the
// dims/nnz ratios, the streaming growth pattern — is preserved; see
// DESIGN.md ("Substitutions").
//
// Sizes are scaled by a target nnz: a preset keeps the paper's
// dims:nnz proportions, so e.g. a 200k-entry Clothing-like tensor has
// the same ~2.7 ratings per reviewer as the 3.2e7-entry original.
package dataset

import (
	"fmt"
	"math"
	"math/bits"

	"dismastd/internal/tensor"
	"dismastd/internal/xrand"
)

// Kind identifies one of the paper's four evaluation datasets.
type Kind int

const (
	Clothing  Kind = iota // Amazon clothing reviews: reviewer x product x time
	Book                  // Amazon book reviews
	Netflix               // Netflix Prize: customer x movie x date
	Synthetic             // uniform random third-order tensor
)

// Kinds lists the four datasets in the paper's order.
var Kinds = []Kind{Clothing, Book, Netflix, Synthetic}

func (k Kind) String() string {
	switch k {
	case Clothing:
		return "Clothing"
	case Book:
		return "Book"
	case Netflix:
		return "Netflix"
	case Synthetic:
		return "Synthetic"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// paperShape holds Table III's published statistics.
type paperShape struct {
	dims [3]float64
	nnz  float64
	// skew: per-mode Zipf exponents; 0 means uniform. Review data has
	// strongly skewed reviewers/customers and products, milder time
	// skew (activity bursts).
	skew   [3]float64
	rating bool // values are 1..5 star ratings rather than U(0,1]
}

var shapes = map[Kind]paperShape{
	Clothing:  {dims: [3]float64{1.2e7, 2.7e6, 7.0e3}, nnz: 3.2e7, skew: [3]float64{1.1, 1.0, 0.6}, rating: true},
	Book:      {dims: [3]float64{1.5e7, 2.9e6, 8.2e3}, nnz: 5.1e7, skew: [3]float64{1.1, 1.05, 0.6}, rating: true},
	Netflix:   {dims: [3]float64{4.8e5, 1.8e4, 2.2e3}, nnz: 1.0e8, skew: [3]float64{0.9, 0.9, 0.5}, rating: true},
	Synthetic: {dims: [3]float64{5.0e4, 5.0e4, 5.0e4}, nnz: 5.0e8, skew: [3]float64{0, 0, 0}, rating: false},
}

// Spec is a fully resolved generator configuration.
type Spec struct {
	Name   string
	Dims   []int
	NNZ    int       // target entry draws (merged duplicates may shrink it slightly)
	Skew   []float64 // per-mode Zipf exponent, 0 = uniform
	Rating bool      // 1..5 star values instead of U(0,1]
	Seed   uint64
}

// Preset scales one of the paper's datasets to approximately targetNNZ
// entries, preserving its dims:nnz proportions and skew profile.
func Preset(k Kind, targetNNZ int, seed uint64) Spec {
	s, ok := shapes[k]
	if !ok {
		panic(fmt.Sprintf("dataset: unknown kind %d", int(k)))
	}
	if targetNNZ <= 0 {
		panic(fmt.Sprintf("dataset: target nnz %d", targetNNZ))
	}
	f := float64(targetNNZ) / s.nnz
	// Mode floors keep reduced-scale tensors partitionable: every mode
	// must have clearly more slices than the partition counts the
	// experiments sweep (up to 38). The uniform Synthetic tensor gets a
	// higher floor (456 = 12×38 slices) so that partition-count
	// granularity does not masquerade as load imbalance — the paper's
	// Synthetic has 5e4 slices per mode, where that effect vanishes.
	floor := 128
	if s.skew == [3]float64{} {
		floor = 456
	}
	dims := make([]int, 3)
	cells := 1.0
	for m := range dims {
		d := int(math.Ceil(s.dims[m] * f))
		if d < floor {
			d = floor
		}
		dims[m] = d
		cells *= float64(d)
	}
	// At tiny scales the proportional dims can hold fewer cells than
	// the target nnz; inflate all modes uniformly so the tensor stays
	// sparse (≥ 8 cells per entry), preserving the mode ratios.
	if minCells := 8 * float64(targetNNZ); cells < minCells {
		c := math.Pow(minCells/cells, 1.0/3.0)
		for m := range dims {
			dims[m] = int(math.Ceil(float64(dims[m]) * c))
		}
	}
	return Spec{
		Name:   k.String(),
		Dims:   dims,
		NNZ:    targetNNZ,
		Skew:   []float64{s.skew[0], s.skew[1], s.skew[2]},
		Rating: s.rating,
		Seed:   seed,
	}
}

// Generate draws the tensor: each entry's mode coordinates come from
// independent Zipf (or uniform) samplers, routed through a per-mode
// permutation so popular indices are scattered across the index range
// as in real data rather than clustered at zero.
func (s Spec) Generate() *tensor.Tensor {
	if len(s.Dims) == 0 || len(s.Skew) != len(s.Dims) {
		panic(fmt.Sprintf("dataset: spec %q has %d dims, %d skews", s.Name, len(s.Dims), len(s.Skew)))
	}
	// Duplicates are found by each cell's mixed-radix linear index,
	// which must fit in a uint64.
	cells := uint64(1)
	for _, d := range s.Dims {
		if d > 0 && cells > math.MaxUint64/uint64(d) {
			panic(fmt.Sprintf("dataset: spec %q dims %v do not index in 64 bits", s.Name, s.Dims))
		}
		cells *= uint64(d)
	}
	src := xrand.New(s.Seed)
	n := len(s.Dims)
	samplers := make([]func() int, n)
	for m, d := range s.Dims {
		if s.Skew[m] <= 0 {
			d := d
			samplers[m] = func() int { return src.Intn(d) }
			continue
		}
		z := xrand.NewZipf(src.Split(), s.Skew[m], d)
		perm := src.Perm(d)
		samplers[m] = func() int { return perm[z.Draw()] }
	}
	b := tensor.NewBuilder(s.Dims)
	idx := make([]int, n)
	seen := newCellSet(s.NNZ)
	for e := 0; e < s.NNZ; e++ {
		// Redraw duplicate coordinates (bounded) so values stay in
		// their nominal range instead of merging; real review data has
		// one rating per (reviewer, product, time) cell.
		placed := false
		for try := 0; try < 64; try++ {
			key := uint64(0)
			for m := range idx {
				idx[m] = samplers[m]()
				key = key*uint64(s.Dims[m]) + uint64(idx[m])
			}
			if seen.insert(key) {
				placed = true
				break
			}
		}
		if !placed {
			continue // Zipf head saturated; accept slightly fewer entries
		}
		v := src.Float64()
		if s.Rating {
			v = float64(1 + src.Intn(5))
		}
		b.Append(idx, v)
	}
	return b.Build()
}

// cellSet is a set of mixed-radix cell indices: one flat open-addressed
// table with linear probing, sized once for n insertions at a load of
// at most one half. A slot holds its index plus one; 0 marks it empty.
type cellSet struct {
	slots []uint64
	shift uint // 64 − log₂ len(slots): a hash's top bits pick the slot
}

func newCellSet(n int) cellSet {
	size := 2
	for size < 2*n {
		size <<= 1
	}
	return cellSet{slots: make([]uint64, size), shift: uint(64 - bits.TrailingZeros(uint(size)))}
}

// insert adds cell and reports whether it was absent. cell must be
// below MaxUint64, which every index of a cell count that fits in 64
// bits is.
func (s cellSet) insert(cell uint64) bool {
	k := cell + 1
	mask := uint64(len(s.slots) - 1)
	for i := (k * 0x9e3779b97f4a7c15) >> s.shift; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case 0:
			s.slots[i] = k
			return true
		case k:
			return false
		}
	}
}

// Stats reports the Table III statistics of a generated tensor.
type Stats struct {
	Name string
	Dims []int
	NNZ  int
}

// Describe returns the Table III row for t.
func Describe(name string, t *tensor.Tensor) Stats {
	return Stats{Name: name, Dims: append([]int(nil), t.Dims...), NNZ: t.NNZ()}
}

// PaperRow returns the original Table III statistics for comparison in
// EXPERIMENTS.md: dims I, J, K and nnz.
func PaperRow(k Kind) (dims [3]float64, nnz float64) {
	s := shapes[k]
	return s.dims, s.nnz
}

// Stream builds the paper's Fig. 5 growth pattern: snapshots whose mode
// sizes are the given fractions of the full dims (75%..100% by 5% in
// the paper). Fractions must be in (0, 1], non-decreasing, ending at 1.
func Stream(t *tensor.Tensor, fracs []float64) (*tensor.Sequence, error) {
	if len(fracs) == 0 {
		return nil, fmt.Errorf("dataset: no stream fractions")
	}
	steps := make([][]int, len(fracs))
	prev := 0.0
	for i, f := range fracs {
		if f <= 0 || f > 1 {
			return nil, fmt.Errorf("dataset: fraction %v out of (0, 1]", f)
		}
		if f < prev {
			return nil, fmt.Errorf("dataset: fractions must be non-decreasing, got %v after %v", f, prev)
		}
		prev = f
		dims := make([]int, t.Order())
		for m, d := range t.Dims {
			dims[m] = int(math.Ceil(float64(d) * f))
			if dims[m] > d {
				dims[m] = d
			}
		}
		steps[i] = dims
	}
	if fracs[len(fracs)-1] != 1 {
		return nil, fmt.Errorf("dataset: final fraction must be 1, got %v", fracs[len(fracs)-1])
	}
	return tensor.NewSequence(t, steps)
}

// PaperFractions is the Fig. 5 growth schedule: 75% to 100% by 5%.
var PaperFractions = []float64{0.75, 0.80, 0.85, 0.90, 0.95, 1.00}
