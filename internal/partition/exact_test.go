package partition

import "sort"

// The tests' reference solvers. Exact solvers for the optimal tensor
// partitioning problem on small inputs: Theorem 1 proves the problem
// NP-hard by reduction from the Partition problem, so these are
// exponential; they quantify how close GTP and MTP get to the true
// optimum and exercise the reduction. CKK is the complete
// Karmarkar-Karp algorithm of Korf [47], the paper's citation for the
// Partition problem.

// CKK returns the minimum achievable |sum(S1) − sum(S2)| over all
// two-way partitions of values, using complete Karmarkar-Karp search:
// branch on either differencing the two largest values (placing them in
// opposite sets) or summing them (same set), best-first with pruning.
func CKK(values []int64) int64 {
	if len(values) == 0 {
		return 0
	}
	sorted := append([]int64(nil), values...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	var total int64
	for _, v := range sorted {
		total += v
	}
	best := total // worst case: everything on one side
	var rec func(vals []int64, sum int64)
	rec = func(vals []int64, sum int64) {
		if best == 0 {
			return
		}
		if len(vals) == 1 {
			d := vals[0]
			if d < 0 {
				d = -d
			}
			if d < best {
				best = d
			}
			return
		}
		// If the largest value dominates the rest, the difference is
		// forced and the search below cannot improve on it.
		if vals[0] >= sum-vals[0] {
			d := vals[0] - (sum - vals[0])
			if d < best {
				best = d
			}
			return
		}
		a, b := vals[0], vals[1]
		rest := vals[2:]
		// Branch 1 (KK move): a and b on opposite sides -> |a−b| joins.
		d1 := insertSorted(rest, a-b)
		rec(d1, sum-2*b)
		// Branch 2: a and b on the same side -> a+b joins.
		d2 := insertSorted(rest, a+b)
		rec(d2, sum)
	}
	rec(sorted, total)
	return best
}

// insertSorted returns a fresh descending-sorted slice equal to vals
// with v inserted.
func insertSorted(vals []int64, v int64) []int64 {
	out := make([]int64, 0, len(vals)+1)
	inserted := false
	for _, x := range vals {
		if !inserted && v >= x {
			out = append(out, v)
			inserted = true
		}
		out = append(out, x)
	}
	if !inserted {
		out = append(out, v)
	}
	return out
}

// OptimalMaxLoad returns the minimum achievable makespan (heaviest
// partition) over every assignment of the slices into p partitions, by
// branch-and-bound over slices sorted descending. Exponential — only
// for small len(slices) in tests and ablations.
func OptimalMaxLoad(slices []int64, p int) int64 {
	checkParts(len(slices), p)
	sorted := append([]int64(nil), slices...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
	var total int64
	for _, v := range sorted {
		total += v
	}
	// Start from the LPT greedy as an upper bound.
	best := MTP(slices, p).maxLoad()
	// Lower bound: ceil(total/p) and the largest single slice.
	lower := (total + int64(p) - 1) / int64(p)
	if len(sorted) > 0 && sorted[0] > lower {
		lower = sorted[0]
	}
	loads := make([]int64, p)
	var rec func(i int)
	rec = func(i int) {
		if best == lower {
			return
		}
		if i == len(sorted) {
			max := int64(0)
			for _, l := range loads {
				if l > max {
					max = l
				}
			}
			if max < best {
				best = max
			}
			return
		}
		usedEmpty := false
		for j := 0; j < p; j++ {
			if loads[j] == 0 {
				// All empty partitions are symmetric; try only one.
				if usedEmpty {
					continue
				}
				usedEmpty = true
			}
			if loads[j]+sorted[i] >= best {
				continue // cannot improve
			}
			loads[j] += sorted[i]
			rec(i + 1)
			loads[j] -= sorted[i]
		}
	}
	rec(0)
	return best
}

// OptimalContiguousMaxLoad returns the minimum achievable makespan over
// contiguous partitionings only — the restricted space GTP searches.
// It binary-searches the answer and checks feasibility greedily, which
// is exact for the contiguous problem and runs in O(I log Σ).
func OptimalContiguousMaxLoad(slices []int64, p int) int64 {
	checkParts(len(slices), p)
	var total, maxSlice int64
	for _, v := range slices {
		total += v
		if v > maxSlice {
			maxSlice = v
		}
	}
	lo, hi := maxSlice, total
	feasible := func(cap int64) bool {
		parts := 1
		var sum int64
		for _, v := range slices {
			if sum+v > cap {
				parts++
				sum = v
				if parts > p {
					return false
				}
			} else {
				sum += v
			}
		}
		return true
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		if feasible(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// GTPNoBackoff is GTP without the better-balance boundary choice of
// Algorithm 2 lines 10–12: a boundary slice is always kept in the
// current partition once the running sum reaches the target. It is
// the ablation baseline for that design choice: on skewed data the
// back-off measurably tightens the balance.
func GTPNoBackoff(slices []int64, p int) *ModePlan {
	checkParts(len(slices), p)
	var total int64
	for _, a := range slices {
		total += a
	}
	target := float64(total) / float64(p)
	assign := make([]int32, len(slices))
	part := 0
	sum := int64(0)
	for i, a := range slices {
		if part == p-1 {
			assign[i] = int32(part)
			continue
		}
		assign[i] = int32(part)
		sum += a
		if float64(sum) >= target {
			part++
			sum = 0
		}
	}
	return &ModePlan{Parts: p, Assign: assign, Loads: loadsFromAssign(slices, assign, p)}
}
