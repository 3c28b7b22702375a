// Package partition implements the tensor partitioning half of
// DisMASTD (Section IV-A): the two load-balancing heuristics GTP
// (Algorithm 2) and MTP (Algorithm 3), balance statistics matching the
// paper's Table IV, and exact optimal partitioners for small inputs
// that demonstrate the NP-hard optimum the heuristics approximate
// (Theorem 1 reduces it to the Partition problem).
//
// Both heuristics operate on a per-mode slice histogram: a_i is the
// number of non-zero complement entries in slice i of the mode
// (tensor.SliceNNZ). A partitioning of one mode assigns each slice to
// one of p partitions; the workload of a partition is the sum of its
// slices' nnz.
package partition

import (
	"cmp"
	"container/heap"
	"fmt"
	"math"
	"slices"

	"dismastd/internal/obs"
)

// Method selects a partitioning heuristic.
type Method int

const (
	// GTPMethod is Greedy Tensor Partitioning: contiguous slice runs,
	// boundaries placed when the running nnz reaches the target size.
	GTPMethod Method = iota
	// MTPMethod is Max-min Fit Tensor Partitioning: slices sorted by
	// descending nnz, each assigned to the currently lightest partition.
	MTPMethod
)

func (m Method) String() string {
	switch m {
	case GTPMethod:
		return "GTP"
	case MTPMethod:
		return "MTP"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// ModePlan is the partitioning of one tensor mode.
type ModePlan struct {
	Mode   int
	Parts  int
	Assign []int32 // Assign[i] is the partition owning slice i
	Loads  []int64 // Loads[p] is the total nnz assigned to partition p
	Sorted int     // slices the heuristic sorted: the non-empty ones under MTP and WeightedLPT, none under GTP
}

// loadsFromAssign recomputes the per-partition loads of an assignment.
func loadsFromAssign(slices []int64, assign []int32, p int) []int64 {
	loads := make([]int64, p)
	for i, part := range assign {
		loads[part] += slices[i]
	}
	return loads
}

// GTP implements Algorithm 2 on one mode's slice histogram. It walks
// the slices in index order, accumulating until the running sum reaches
// the target nnz/p; at the boundary it keeps the slice in the current
// partition or pushes it to the next, whichever lands closer to the
// target (lines 10–12). Once p−1 partitions are closed, every remaining
// slice goes to the last partition (lines 16–17).
func GTP(slices []int64, p int) *ModePlan {
	checkParts(len(slices), p)
	var total int64
	for _, a := range slices {
		total += a
	}
	target := float64(total) / float64(p)
	assign := make([]int32, len(slices))
	part := 0
	sum := int64(0)
	for i := 0; i < len(slices); {
		if part == p-1 {
			assign[i] = int32(part)
			i++
			continue
		}
		a := slices[i]
		if float64(sum+a) < target {
			assign[i] = int32(part)
			sum += a
			i++
			continue
		}
		over := float64(sum+a) - target
		under := target - float64(sum)
		if over <= under || sum == 0 {
			// Including slice i balances better — or the partition is
			// empty, in which case excluding can never balance better
			// (an empty partition is maximally unbalanced) and would
			// push an oversized slice forward indefinitely.
			assign[i] = int32(part)
			part++
			sum = 0
			i++
		} else {
			// Close without slice i; it is re-evaluated against the
			// next (empty) partition.
			part++
			sum = 0
		}
	}
	return &ModePlan{Parts: p, Assign: assign, Loads: loadsFromAssign(slices, assign, p)}
}

// MTP implements Algorithm 3: sort the slices by descending nnz, then
// repeatedly give the heaviest unassigned slice to the partition with
// the smallest current load (a max-min / LPT greedy). Unlike GTP the
// resulting partitions are generally non-contiguous.
func MTP(slices []int64, p int) *ModePlan {
	checkParts(len(slices), p)
	order, loaded := heaviestFirst(slices)
	h := make(loadHeap, p)
	for i := range h {
		h[i] = partLoad{part: i}
	}
	heap.Init(&h)
	assign := make([]int32, len(slices))
	for _, i := range order[:loaded] {
		min := &h[0]
		assign[i] = int32(min.part)
		min.load += slices[i]
		min.count++
		heap.Fix(&h, 0)
	}
	counts := make([]int, p)
	for _, pl := range h {
		counts[pl.part] = pl.count
	}
	spreadEmpty(order[loaded:], assign, counts)
	return &ModePlan{Parts: p, Assign: assign, Loads: loadsFromAssign(slices, assign, p), Sorted: loaded}
}

// heaviestFirst returns the slice indices in the order MTP and
// WeightedLPT place them — descending nnz, ties by ascending index — and
// how many of them carry load. Only those are sorted: under that order
// the empty slices are a tail in ascending index order, which is the
// order a single pass meets them in, so a mode whose complement names a
// few thousand of its slices pays for those and not for its length.
func heaviestFirst(nnz []int64) (order []int, loaded int) {
	for _, a := range nnz {
		if a > 0 {
			loaded++
		}
	}
	order = make([]int, len(nnz))
	lo, hi := 0, loaded
	for i, a := range nnz {
		if a > 0 {
			order[lo] = i
			lo++
		} else {
			order[hi] = i
			hi++
		}
	}
	slices.SortFunc(order[:loaded], func(x, y int) int {
		if nnz[x] != nnz[y] {
			return cmp.Compare(nnz[y], nnz[x])
		}
		return cmp.Compare(x, y) // deterministic tie-break
	})
	return order, loaded
}

// spreadEmpty assigns the empty slices. They carry no MTTKRP load, so
// any assignment satisfies Algorithm 3's max-min objective; spread them
// round-robin by slice count. Sending them all to the single lightest
// partition (what a literal "assign to min load" does) would concentrate
// the factor-row update work — proportional to row count, invisible to
// the nnz statistic — on one worker. counts[q] is the number of slices
// partition q holds so far.
func spreadEmpty(empty []int, assign []int32, counts []int) {
	for _, i := range empty {
		min := 0
		for q := 1; q < len(counts); q++ {
			if counts[q] < counts[min] {
				min = q
			}
		}
		assign[i] = int32(min)
		counts[min]++
	}
}

// Partition dispatches to the heuristic selected by method.
func Partition(slices []int64, p int, method Method) *ModePlan {
	switch method {
	case GTPMethod:
		return GTP(slices, p)
	case MTPMethod:
		return MTP(slices, p)
	default:
		panic(fmt.Sprintf("partition: unknown method %d", int(method)))
	}
}

func checkParts(slices, p int) {
	if p <= 0 {
		panic(fmt.Sprintf("partition: %d partitions", p))
	}
	if slices == 0 {
		panic("partition: empty slice histogram")
	}
}

type partLoad struct {
	part  int
	load  int64
	count int // slices assigned so far
}

// loadHeap is a min-heap by load, then by slice count, then by part
// index. The count tie-break matters on sparse modes: zero-nnz slices
// leave the load unchanged, and without it every empty slice would pile
// onto one partition — whose factor-row update work is proportional to
// its *row count*, not its nnz — creating a straggler the nnz statistic
// never sees.
type loadHeap []partLoad

func (h loadHeap) Len() int { return len(h) }
func (h loadHeap) Less(i, j int) bool {
	if h[i].load != h[j].load {
		return h[i].load < h[j].load
	}
	if h[i].count != h[j].count {
		return h[i].count < h[j].count
	}
	return h[i].part < h[j].part
}
func (h loadHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *loadHeap) Push(x any)   { *h = append(*h, x.(partLoad)) }
func (h *loadHeap) Pop() any     { old := *h; x := old[len(old)-1]; *h = old[:len(old)-1]; return x }

// maxLoad returns the heaviest partition's nnz — the makespan the
// optimal partitioning problem minimises.
func (p *ModePlan) maxLoad() int64 {
	var max int64
	for _, l := range p.Loads {
		if l > max {
			max = l
		}
	}
	return max
}

// Observe publishes the plan's balance statistics as gauges
// (partition.mode<M>.cv, .max_load, .parts) so a live registry shows
// how well the current snapshot's slices spread. Planning-time only —
// not on any hot path. No-op on a nil registry.
func (p *ModePlan) Observe(reg *obs.Registry) {
	if reg == nil {
		return
	}
	prefix := fmt.Sprintf("partition.mode%d.", p.Mode)
	reg.Gauge(prefix + "cv").Set(p.ImbalanceStdDev())
	reg.Gauge(prefix + "max_load").Set(float64(p.maxLoad()))
	reg.Gauge(prefix + "parts").Set(float64(p.Parts))
}

// ImbalanceStdDev returns the standard deviation of the per-partition
// nnz normalised by the mean load (the coefficient of variation) —
// the load-balance statistic reported in Table IV. Zero means perfectly
// balanced. It returns 0 for an empty tensor.
func (p *ModePlan) ImbalanceStdDev() float64 {
	return ImbalanceStdDev(p.Loads)
}

// ImbalanceStdDev computes stddev(loads)/mean(loads).
func ImbalanceStdDev(loads []int64) float64 {
	if len(loads) == 0 {
		return 0
	}
	var sum float64
	for _, l := range loads {
		sum += float64(l)
	}
	mean := sum / float64(len(loads))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, l := range loads {
		d := float64(l) - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(loads))) / mean
}

// ImbalanceCV is ImbalanceStdDev over float64 loads — the same
// coefficient-of-variation statistic, arithmetic step for step, so the
// imbalance detector's fence-time reading of measured per-rank costs is
// directly comparable to the planning-time partition.modeN.cv gauges.
// Allocation-free, as the detector runs it every step fence.
func ImbalanceCV(loads []float64) float64 {
	if len(loads) == 0 {
		return 0
	}
	var sum float64
	for _, l := range loads {
		sum += l
	}
	mean := sum / float64(len(loads))
	if mean == 0 {
		return 0
	}
	var ss float64
	for _, l := range loads {
		d := l - mean
		ss += d * d
	}
	return math.Sqrt(ss/float64(len(loads))) / mean
}

// WeightedLPT partitions one mode's slice histogram onto p partitions
// whose unit costs differ: partition q processes one nnz in weights[q]
// time, so its completion time for load L is weights[q]·L. The greedy
// walks slices by descending nnz and gives each to the partition with
// the smallest resulting weighted completion — plain LPT (≈ MTP) when
// the weights are uniform, and a speed-aware plan when they are the
// measured per-rank costs the imbalance detector broadcasts. Zero-nnz
// slices spread round-robin by slice count, exactly as in MTP and for
// the same reason. Weights must be positive and one per partition.
func WeightedLPT(slices []int64, weights []float64, p int) *ModePlan {
	checkParts(len(slices), p)
	if len(weights) != p {
		panic(fmt.Sprintf("partition: %d weights for %d partitions", len(weights), p))
	}
	for q, w := range weights {
		if !(w > 0) || math.IsInf(w, 1) {
			panic(fmt.Sprintf("partition: weight[%d] = %v, want positive finite", q, w))
		}
	}
	order, loaded := heaviestFirst(slices)
	assign := make([]int32, len(slices))
	loads := make([]int64, p)
	counts := make([]int, p)
	for _, i := range order[:loaded] {
		a := slices[i]
		best := 0
		bestCost := weights[0] * float64(loads[0]+a)
		for q := 1; q < p; q++ {
			cost := weights[q] * float64(loads[q]+a)
			if cost < bestCost || (cost == bestCost && counts[q] < counts[best]) {
				best, bestCost = q, cost
			}
		}
		assign[i] = int32(best)
		loads[best] += a
		counts[best]++
	}
	spreadEmpty(order[loaded:], assign, counts)
	return &ModePlan{Parts: p, Assign: assign, Loads: loads, Sorted: loaded}
}
