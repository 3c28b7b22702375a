// Package sample implements randomized leverage-score sampled ALS
// (CP-ARLS-LEV style) for the streaming engines: instead of the exact
// MTTKRP over every non-zero — the per-round cost that scales with nnz
// — each mode's least-squares system is replaced by a downsampled
// sketch of the Khatri-Rao product.
//
// Per mode k, rows of the factor A_k are scored by their statistical
// leverage ℓ_k(i) = a_k(i)ᵀ(A_kᵀA_k)⁻¹a_k(i), computed from the factor
// Grams the sweeps already maintain (one triangular solve per row
// against the Gram's Cholesky factor). A sample for target mode n is a
// joint index tuple (i_k)_{k≠n} drawn independently per mode with
// probability proportional to ℓ_k(i) (plus a small uniform mixing term
// so every row stays reachable); S such draws with importance weights
// w_s = 1/(S·p_s) form the sketched system
//
//	Ĝ = Σ_s w_s·z_s z_sᵀ ≈ ∗_{k≠n} A_kᵀA_k,   M̂ = sketched MTTKRP,
//
// where z_s is the Khatri-Rao row at the drawn tuple. Ĝ is the Gram of
// the S×R matrix whose rows are √w_s·z_s; M̂ accumulates, for every
// drawn tuple that matches a non-empty tensor fiber, the fiber's
// entries scaled by the tuple's aggregated weight — a weighted
// mttkrp.Kernel view over the matched entries, so the existing
// deterministic parallel accumulator runs unchanged. Both estimators
// are unbiased, rounds cost O(S·R² + matched) instead of O(nnz·R), and
// every draw comes from a deterministic sub-stream keyed by
// (seed, mode, worker rank) so runs are bitwise reproducible at every
// thread count and, for the distributed driver, at a fixed world size.
package sample

import (
	"fmt"
	"math/bits"
)

// Kind selects the per-mode least-squares strategy of an ALS sweep.
type Kind int

const (
	// Exact solves each mode with the full MTTKRP and the exact Gram
	// Hadamard product — the default, and the verification oracle the
	// sampled path is measured against.
	Exact Kind = iota
	// Sampled solves each mode against the leverage-score sampled
	// sketch built by Sampler.
	Sampled
)

// String returns the flag spelling of the kind.
func (k Kind) String() string {
	switch k {
	case Exact:
		return "exact"
	case Sampled:
		return "sampled"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind parses a -solver flag value. The empty string selects
// Exact, matching the zero value of Options fields.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "", "exact":
		return Exact, nil
	case "sampled":
		return Sampled, nil
	default:
		return Exact, fmt.Errorf("sample: unknown solver %q (want exact or sampled)", s)
	}
}

// DefaultSamples is the per-mode sample count S every engine's sampled
// solver draws. At paper-scale tensors (nnz ≥ 10⁶) it keeps
// a sampled round several times cheaper than the exact MTTKRP while
// holding the final fit within ~1e-2 of exact on the fit-gap harness.
const DefaultSamples = 8192

// CheckDims reports whether every target mode's joint sample space —
// the product of the other modes' sizes — fits a packed uint64 fiber
// key. Engines validate this before constructing a Sampler; tensors
// beyond the bound (unreachable for the paper datasets by many orders
// of magnitude) must use the exact solver.
func CheckDims(dims []int) error {
	for m := range dims {
		span := uint64(1)
		for k, d := range dims {
			if k == m {
				continue
			}
			hi, lo := bits.Mul64(span, uint64(d))
			if hi != 0 {
				return fmt.Errorf("sample: joint index space of mode %d exceeds 2^64; use the exact solver (-solver exact)", m)
			}
			span = lo
		}
	}
	return nil
}
