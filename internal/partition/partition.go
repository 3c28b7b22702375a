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
	Sorted int     // slices the heuristic sorted: the non-empty ones under MTP, none under GTP
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
// the smallest current load (a max-min / LPT greedy) — fewest slices,
// then lowest index, on a tie. Zero-nnz slices spread round-robin by
// slice count (spreadEmpty). Unlike GTP the resulting partitions are
// generally non-contiguous.
func MTP(slices []int64, p int) *ModePlan {
	checkParts(len(slices), p)
	order, loaded := heaviestFirst(slices)
	assign := make([]int32, len(slices))
	loads := make([]int64, p)
	counts := make([]int, p)
	for _, i := range order[:loaded] {
		best := 0
		for q := 1; q < p; q++ {
			if loads[q] < loads[best] || (loads[q] == loads[best] && counts[q] < counts[best]) {
				best = q
			}
		}
		assign[i] = int32(best)
		loads[best] += slices[i]
		counts[best]++
	}
	spreadEmpty(order[loaded:], assign, counts)
	return &ModePlan{Parts: p, Assign: assign, Loads: loads, Sorted: loaded}
}

// heaviestFirst returns the slice indices in the order MTP places
// them — descending nnz, ties by ascending index — and
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
