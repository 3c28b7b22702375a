// Package cp holds the CP (Kruskal) model utilities every engine and
// the public API share: evaluating the model at a coordinate, its
// definitional loss against a tensor, and column normalisation. The
// decomposition itself lives in internal/dtd — static CP-ALS is the
// Eq. (5) sweep from an empty prior (dtd.Init).
package cp

import (
	"fmt"
	"math"

	"dismastd/internal/mat"
	"dismastd/internal/mttkrp"
	"dismastd/internal/tensor"
)

// Reconstruct evaluates the Kruskal model at one coordinate:
// Σ_r ∏_k A_k[idx_k, r]. It is the prediction primitive the
// recommendation example uses for missing entries.
func Reconstruct(factors []*mat.Dense, idx []int) float64 {
	if len(idx) != len(factors) {
		panic(fmt.Sprintf("cp: Reconstruct with %d indices for %d factors", len(idx), len(factors)))
	}
	r := factors[0].Cols
	total := 0.0
	for c := 0; c < r; c++ {
		p := 1.0
		for k, f := range factors {
			p *= f.At(idx[k], c)
		}
		total += p
	}
	return total
}

// LossAgainst returns ‖X − [[factors]]‖_F computed from scratch — the
// slow definitional form used to validate the reuse-based loss.
func LossAgainst(x *tensor.Tensor, factors []*mat.Dense) float64 {
	grams := make([]*mat.Dense, len(factors))
	for m, f := range factors {
		grams[m] = mat.Gram(f)
	}
	modelSq := mat.SumAll(mat.HadamardAll(grams...))
	inner := mttkrp.InnerProduct(x, factors)
	lossSq := x.NormSq() - 2*inner + modelSq
	if lossSq < 0 {
		lossSq = 0
	}
	return math.Sqrt(lossSq)
}
