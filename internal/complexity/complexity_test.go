package complexity

import (
	"testing"

	"dismastd/internal/core"
	"dismastd/internal/dtd"
	"dismastd/internal/partition"
	"dismastd/internal/tensor"
	"dismastd/internal/xrand"
)

func base() Params {
	return Params{N: 3, I: 40, D: 10, R: 8, M: 4, NNZ: 5000}
}

func TestFormulasMonotone(t *testing.T) {
	p := base()
	grow := func(name string, f func(Params) Params, eval func(Params) float64) {
		if eval(f(p)) <= eval(p) {
			t.Fatalf("%s: formula not increasing", name)
		}
	}
	for name, eval := range map[string]func(Params) float64{
		"time": TimeOps, "memory": MemoryFloats, "comm": CommBytes, "implMemory": ImplMemoryFloats,
	} {
		grow(name+"/nnz", func(q Params) Params { q.NNZ *= 2; return q }, eval)
		grow(name+"/R", func(q Params) Params { q.R *= 2; return q }, eval)
		grow(name+"/I", func(q Params) Params { q.I *= 2; return q }, eval)
	}
	// M enters memory and communication but not the time formula.
	q := p
	q.M *= 4
	if CommBytes(q) <= CommBytes(p) || MemoryFloats(q) <= MemoryFloats(p) {
		t.Fatal("M should increase memory and communication")
	}
	if TimeOps(q) != TimeOps(p) {
		t.Fatal("Theorem 2 has no M term")
	}
	// MTP pays I log I instead of I.
	mtp := p
	mtp.MTP = true
	if TimeOps(mtp) <= TimeOps(p) {
		t.Fatal("MTP partitioning term should exceed GTP's")
	}
}

// measure runs one distributed step and returns (total work units,
// total bytes sent).
func measure(t *testing.T, dims, oldDims []int, nnz, rank, workers int, seed uint64) (float64, int64) {
	t.Helper()
	src := xrand.New(seed)
	b := tensor.NewBuilder(dims)
	idx := make([]int, len(dims))
	for e := 0; e < nnz; e++ {
		for m, d := range dims {
			idx[m] = src.Intn(d)
		}
		b.Append(idx, src.Float64()+0.5)
	}
	full := b.Build()
	prev, _, err := dtd.Init(full.Prefix(oldDims), dtd.Options{Rank: rank, MaxIters: 5, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := core.Step(prev, full, core.Options{
		Rank: rank, MaxIters: 3, Tol: 0, Workers: workers, Method: partition.MTPMethod, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	var work float64
	for _, r := range stats.Cluster.Ranks {
		work += r.Work
	}
	return work, stats.Cluster.TotalBytes()
}

func TestTheorem2WorkScalesWithNNZ(t *testing.T) {
	// Quadrupling the complement nnz with dims fixed must grow the
	// measured work by clearly more than 1x but at most ~4x plus the
	// nnz-independent row-update floor.
	dims := []int{50, 50, 50}
	old := []int{40, 40, 40}
	w1, _ := measure(t, dims, old, 3000, 8, 4, 1)
	w4, _ := measure(t, dims, old, 12000, 8, 4, 1)
	ratio := w4 / w1
	if ratio < 1.5 || ratio > 4.5 {
		t.Fatalf("4x nnz changed work by %.2fx; Theorem 2 predicts between the IR² floor and linear", ratio)
	}
}

func TestTheorem2WorkScalesWithR(t *testing.T) {
	// The R² and R³ terms must make work grow superlinearly in R.
	dims := []int{50, 50, 50}
	old := []int{40, 40, 40}
	w1, _ := measure(t, dims, old, 4000, 4, 4, 3)
	w2, _ := measure(t, dims, old, 4000, 8, 4, 3)
	if ratio := w2 / w1; ratio < 2 {
		t.Fatalf("doubling R grew work only %.2fx; expected ≥ 2x from the R² terms", ratio)
	}
}

func TestTheorem4TrafficIndependentOfNNZ(t *testing.T) {
	// Per Theorem 4 the per-iteration traffic has no nnz·R term: with
	// fixed dims and R, quadrupling nnz must grow traffic sublinearly
	// (only through denser row subscriptions, bounded by the dims).
	dims := []int{50, 50, 50}
	old := []int{40, 40, 40}
	_, b1 := measure(t, dims, old, 3000, 8, 4, 5)
	_, b4 := measure(t, dims, old, 12000, 8, 4, 5)
	if ratio := float64(b4) / float64(b1); ratio > 2.0 {
		t.Fatalf("4x nnz grew traffic %.2fx; Theorem 4 predicts dims-bounded growth", ratio)
	}
}

func TestTheorem4TrafficGrowsWithWorkersAndR(t *testing.T) {
	dims := []int{60, 60, 60}
	old := []int{48, 48, 48}
	_, b4 := measure(t, dims, old, 5000, 8, 4, 7)
	_, b8 := measure(t, dims, old, 5000, 8, 8, 7)
	if b8 <= b4 {
		t.Fatalf("more workers should increase total traffic (MNR² and row fan-out): %d vs %d", b8, b4)
	}
	_, r8 := measure(t, dims, old, 5000, 8, 4, 9)
	_, r16 := measure(t, dims, old, 5000, 16, 4, 9)
	if r16 <= r8 {
		t.Fatalf("doubling R should increase traffic: %d vs %d", r16, r8)
	}
}

func TestMemoryEstimateOrdering(t *testing.T) {
	// The implementation's replica memory must dominate the paper's
	// collectively-owned bound whenever M > 1.
	p := base()
	if ImplMemoryFloats(p) <= MemoryFloats(p) {
		t.Fatal("replicated factors must cost more than the Theorem 3 bound")
	}
	p.M = 1
	if ImplMemoryFloats(p) < MemoryFloats(p)*0.5 {
		t.Fatal("single-worker memory should be comparable to the bound")
	}
}

// TimeOps evaluates Theorem 2:
//
//	O(N(nnz·R + R³ + IR² + dR² + IR + dR + R² + I))          with GTP
//	O(N(nnz·R + R³ + IR² + dR² + IR + dR + R² + I·log I))    with MTP
//
// per iteration. The engine's IR² and dR² are over the rows the
// complement names only (plus R³ for the rest, and IR² once per step —
// the package comment's second deviation), so on a dims-dominated step
// the measured work sits well under this bound; when the complement
// touches every row the two coincide.
func TimeOps(p Params) float64 {
	n := float64(p.N)
	i := float64(p.I)
	d := float64(p.D)
	r := float64(p.R)
	nnz := float64(p.NNZ)
	partition := i
	if p.MTP {
		partition = i * log2(i)
	}
	return n * (nnz*r + r*r*r + i*r*r + d*r*r + i*r + d*r + r*r + partition)
}

// MemoryFloats evaluates Theorem 3, in float64-equivalents:
//
//	O(nnz + MNR² + NIR + NdR)
//
// — the complement entries, the replicated R×R products on M workers,
// and the factor matrices plus their MTTKRP buffers.
func MemoryFloats(p Params) float64 {
	n := float64(p.N)
	i := float64(p.I)
	d := float64(p.D)
	r := float64(p.R)
	m := float64(p.M)
	return float64(p.NNZ) + m*n*r*r + n*i*r + n*d*r
}

// ImplMemoryFloats evaluates the memory of THIS implementation, which
// deviates from Theorem 3 in one documented way: each worker holds a
// full replica of every factor matrix (M·N·(I+d)·R instead of the
// paper's collectively-owned N·(I+d)·R), trading memory for the simpler
// subscription-based row exchange. The complement is additionally
// indexed once per mode (N·nnz entry ids).
func ImplMemoryFloats(p Params) float64 {
	n := float64(p.N)
	i := float64(p.I)
	d := float64(p.D)
	r := float64(p.R)
	m := float64(p.M)
	return float64(p.NNZ)*(1+n/2) + m*n*r*r + m*n*(i+d)*r
}

func log2(x float64) float64 {
	if x < 2 {
		return 1
	}
	l := 0.0
	for x >= 2 {
		x /= 2
		l++
	}
	return l
}
