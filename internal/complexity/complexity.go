// Package complexity encodes the paper's analytical results —
// Theorem 2 (time), Theorem 3 (memory), and Theorem 4 (network
// communication) — as executable formulas, so the test suite can check
// that the implementation's *measured* counters (work units from the
// cluster runtime, bytes from the transport, allocated state from the
// plan) scale the way Section IV-C predicts.
//
// The formulas follow the paper's simplified setting: an N-th order
// stream where every old mode has size I and grows by d, rank R, M
// workers, and nnz = nnz(X \ X̃) complement entries. They are stated up
// to constant factors, as the theorems are; the tests assert *ratios*
// across parameter sweeps, never absolute values.
//
// The implementation deviates from the theorems in two documented
// ways. Memory: every worker holds a full replica of every factor
// (against Theorem 3). Time: the engine does less than Theorem 2 — its
// IR² term sits inside the iteration loop, but a sweep solves and Grams
// only the rows a complement entry names (I_live of them) and carries
// the rest as Ã·T, so the per-iteration row cost is I_live·R² + R³ and
// IR² is paid once per step (see DESIGN.md, "One sweep, two bindings").
// The theorem stays the upper bound; the work counters the tests
// measure charge what is done. Only CommBytes ships: the bench harness
// sets measured traffic against it. The time and memory formulas are
// the tests' (complexity_test.go).
package complexity

// Params is the paper's parameter set for one streaming step.
type Params struct {
	N   int  // tensor order
	I   int  // per-mode old size
	D   int  // per-mode growth
	R   int  // CP rank
	M   int  // worker count
	NNZ int  // nnz(X \ X̃)
	MTP bool // partitioner: MTP sorts (I log I), GTP scans (I)
}

// CommBytes evaluates Theorem 4, in float64-equivalents transferred per
// step:
//
//	O(nnz + MNR² + NIR + NdR)
//
// — shipping every complement entry to its mode partitions, the
// all-to-all Gram reductions, and the factor rows exchanged among
// partitions.
func CommBytes(p Params) float64 {
	n := float64(p.N)
	i := float64(p.I)
	d := float64(p.D)
	r := float64(p.R)
	m := float64(p.M)
	return float64(p.NNZ) + m*n*r*r + n*i*r + n*d*r
}
