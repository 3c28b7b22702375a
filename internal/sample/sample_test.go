package sample

import (
	"math"
	"testing"

	"dismastd/internal/mat"
	"dismastd/internal/mttkrp"
	"dismastd/internal/par"
	"dismastd/internal/tensor"
	"dismastd/internal/xrand"
)

func TestKindRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Kind
	}{{"", Exact}, {"exact", Exact}, {"sampled", Sampled}} {
		k, err := ParseKind(tc.in)
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", tc.in, err)
		}
		if k != tc.want {
			t.Fatalf("ParseKind(%q) = %v, want %v", tc.in, k, tc.want)
		}
	}
	if _, err := ParseKind("bogus"); err == nil {
		t.Fatal("ParseKind(bogus) succeeded")
	}
	if Exact.String() != "exact" || Sampled.String() != "sampled" {
		t.Fatalf("String round-trip broken: %q %q", Exact, Sampled)
	}
}

func TestCheckDims(t *testing.T) {
	if err := CheckDims([]int{1000, 1000, 1000}); err != nil {
		t.Fatalf("paper-scale dims rejected: %v", err)
	}
	// Per target mode the joint space is the product of the OTHER modes;
	// three modes of 2^32 give 2^64 per target, which must overflow.
	big := 1 << 32
	if err := CheckDims([]int{big, big, big}); err == nil {
		t.Fatal("2^64 joint space accepted")
	}
}

// randomTensor draws nnz entries with random coordinates (duplicate
// joint coordinates are likely at these dims, exercising multi-entry
// fibers) and random values.
func randomTensor(dims []int, nnz int, seed uint64) *tensor.Tensor {
	src := xrand.New(seed)
	b := tensor.NewBuilder(dims)
	idx := make([]int, len(dims))
	for e := 0; e < nnz; e++ {
		for m, d := range dims {
			idx[m] = src.Intn(d)
		}
		b.Append(idx, src.NormFloat64())
	}
	return b.Build()
}

// TestFiberIndexInvariants checks the radix-sorted index against its
// contract for every target mode: keys strictly ascending, every entry
// present exactly once in the fiber that matches its joint coordinate,
// entries within a fiber in entry-list (stable) order, and find()
// resolving present keys and rejecting absent ones.
func TestFiberIndexInvariants(t *testing.T) {
	x := randomTensor([]int{13, 7, 5, 3}, 600, 11)
	n := x.Order()
	for m := 0; m < n; m++ {
		ix, err := newFiberIndex(x, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ix.nnz() != x.NNZ() {
			t.Fatalf("mode %d: index covers %d of %d entries", m, ix.nnz(), x.NNZ())
		}
		seen := make([]bool, x.NNZ())
		for f := range ix.keys {
			if f > 0 && ix.keys[f] <= ix.keys[f-1] {
				t.Fatalf("mode %d: keys not strictly ascending at fiber %d", m, f)
			}
			if got := ix.find(ix.keys[f]); got != f {
				t.Fatalf("mode %d: find(keys[%d]) = %d", m, f, got)
			}
			for p := ix.starts[f]; p < ix.starts[f+1]; p++ {
				e := ix.order[p]
				if seen[e] {
					t.Fatalf("mode %d: entry %d appears twice", m, e)
				}
				seen[e] = true
				if k := ix.key(x, e); k != ix.keys[f] {
					t.Fatalf("mode %d: entry %d in fiber %d has key %d, want %d", m, e, f, k, ix.keys[f])
				}
				if p > ix.starts[f] && ix.order[p-1] >= e {
					t.Fatalf("mode %d fiber %d: entries out of stable order", m, f)
				}
			}
		}
		for e := range seen {
			if !seen[e] {
				t.Fatalf("mode %d: entry %d missing from index", m, e)
			}
		}
		// A key off the end of the occupied range must miss.
		if got := ix.find(ix.keys[len(ix.keys)-1] + 1); got != -1 {
			t.Fatalf("mode %d: find(absent) = %d", m, got)
		}
	}
}

// TestDrawCDFInRange is the draw-support property test: for arbitrary
// cumulative distributions and arbitrary uniforms — including ones
// outside [0, 1) that a correct caller never produces — the drawn
// index stays inside the support, and the per-index probabilities sum
// to one.
func TestDrawCDFInRange(t *testing.T) {
	src := xrand.New(99)
	for trial := 0; trial < 50; trial++ {
		n := 1 + src.Intn(40)
		cdf := make([]float64, n)
		cum := 0.0
		for i := range cdf {
			cum += 1e-9 + src.Float64()
			cdf[i] = cum
		}
		psum := 0.0
		for i := range cdf {
			p := probCDF(cdf, cum, i)
			if p <= 0 {
				t.Fatalf("probCDF(%d) = %g, want positive", i, p)
			}
			psum += p
		}
		if math.Abs(psum-1) > 1e-12 {
			t.Fatalf("probabilities sum to %g", psum)
		}
		for _, u := range []float64{0, 0.5, 0.999999, 1, 1.5, -0.5, math.NaN()} {
			if i := drawCDF(cdf, cum, u); i < 0 || i >= n {
				t.Fatalf("drawCDF(u=%g) = %d out of [0, %d)", u, i, n)
			}
		}
		for d := 0; d < 200; d++ {
			if i := drawCDF(cdf, cum, src.Float64()); i < 0 || i >= n {
				t.Fatalf("drawCDF out of range: %d", i)
			}
		}
	}
}

// TestLeverageDistributionChiSquared draws 100k indices from a
// Refresh-built distribution and checks the empirical counts against
// the probCDF expectations with a chi-squared statistic. df = 29; the
// 99.9th percentile of χ²₂₉ is ≈ 58, so a sound sampler passes with
// wide margin (the draws are deterministic at this seed — the test
// guards the estimator, not the RNG).
func TestLeverageDistributionChiSquared(t *testing.T) {
	const dim, rank = 30, 4
	x := randomTensor([]int{dim, dim, dim}, 500, 3)
	s, err := New(x, nil, rank, 1024, 77, 0)
	if err != nil {
		t.Fatal(err)
	}
	src := xrand.New(5)
	factor := mat.RandomUniform(dim, rank, src)
	gram := mat.New(rank, rank)
	mat.GramInto(gram, factor)
	s.Refresh(0, factor, gram)

	const draws = 100000
	counts := make([]float64, dim)
	for d := 0; d < draws; d++ {
		counts[drawCDF(s.cdf[0], s.tot[0], src.Float64())]++
	}
	chi2 := 0.0
	for i := range counts {
		exp := probCDF(s.cdf[0], s.tot[0], i) * draws
		chi2 += (counts[i] - exp) * (counts[i] - exp) / exp
	}
	if chi2 > 58 {
		t.Fatalf("chi-squared %.1f exceeds the χ²₂₉ 99.9th percentile", chi2)
	}
}

// TestSampleMatchesKernelContract recomputes a sketch's MTTKRP through
// the generic Kernel contract (EntryCoord/EntryVal, per-entry factor
// products) and checks the precomputed-KRP-row fast path agrees. The
// two orderings of the same products may differ in the last bits, so
// the comparison is to relative precision, not bitwise.
func TestSampleMatchesKernelContract(t *testing.T) {
	dims := []int{12, 9, 7}
	const rank = 5
	x := randomTensor(dims, 400, 21)
	s, err := New(x, nil, rank, 2048, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	src := xrand.New(6)
	factors := make([]*mat.Dense, len(dims))
	gram := mat.New(rank, rank)
	for m, d := range dims {
		factors[m] = mat.RandomUniform(d, rank, src)
	}
	for m := range dims {
		mat.GramInto(gram, factors[m])
		s.Refresh(m, factors[m], gram)
	}
	pool := par.New(2)
	defer pool.Close()
	wss := mat.NewWorkspaceSet(pool.Threads())
	pk := mat.NewParKernels(pool)
	pacc := mttkrp.NewParAccumulator(pool, wss, nil)

	for m := range dims {
		dst := mat.New(dims[m], rank)
		gs := mat.New(rank, rank)
		matched := s.Sample(m, factors, pacc, pk, dst, gs, "")
		if matched != s.kern.NNZ() {
			t.Fatalf("mode %d: Sample reported %d matched, kernel holds %d", m, matched, s.kern.NNZ())
		}
		want := mat.New(dims[m], rank)
		k := &s.kern
		tmp := make([]float64, rank)
		for g := 0; g < k.NumRows(); g++ {
			row := want.Row(int(k.GroupRow(g)))
			p0, p1 := k.GroupRange(g)
			for p := p0; p < p1; p++ {
				v := k.EntryVal(p)
				for c := range tmp {
					tmp[c] = v
				}
				for kk := range dims {
					if kk == m {
						continue
					}
					fr := factors[kk].Row(int(k.EntryCoord(p, kk)))
					for c := range tmp {
						tmp[c] *= fr[c]
					}
				}
				for c := range tmp {
					row[c] += tmp[c]
				}
			}
		}
		for i := range dst.Data {
			diff := math.Abs(dst.Data[i] - want.Data[i])
			scale := math.Max(1, math.Abs(want.Data[i]))
			if diff > 1e-9*scale {
				t.Fatalf("mode %d: fast path diverges from contract at %d: %g vs %g", m, i, dst.Data[i], want.Data[i])
			}
		}
	}
}

// TestZeroAllocWarmRound asserts the steady-state contract: after a
// warm-up round, a full Refresh+Sample round over every mode performs
// zero heap allocations.
func TestZeroAllocWarmRound(t *testing.T) {
	dims := []int{20, 16, 12}
	const rank = 4
	x := randomTensor(dims, 1500, 8)
	s, err := New(x, nil, rank, 1024, 13, 0)
	if err != nil {
		t.Fatal(err)
	}
	src := xrand.New(14)
	factors := make([]*mat.Dense, len(dims))
	for m, d := range dims {
		factors[m] = mat.RandomUniform(d, rank, src)
	}
	pool := par.New(4)
	defer pool.Close()
	wss := mat.NewWorkspaceSet(pool.Threads())
	pk := mat.NewParKernels(pool)
	pacc := mttkrp.NewParAccumulator(pool, wss, nil)
	gram := mat.New(rank, rank)
	dst := make([]*mat.Dense, len(dims))
	gs := mat.New(rank, rank)
	for m := range dims {
		dst[m] = mat.New(dims[m], rank)
	}
	round := func() {
		for m := range dims {
			mat.GramInto(gram, factors[m])
			s.Refresh(m, factors[m], gram)
			s.Sample(m, factors, pacc, pk, dst[m], gs, "")
		}
	}
	round()
	round()
	if allocs := testing.AllocsPerRun(5, round); allocs != 0 {
		t.Fatalf("warm Refresh+Sample round allocates %.1f times", allocs)
	}
}

func FuzzParseKind(f *testing.F) {
	for _, s := range []string{"", "exact", "sampled", "EXACT", "2", "exact "} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		k, err := ParseKind(s)
		if err == nil && k != Exact && k != Sampled {
			t.Fatalf("ParseKind(%q) = unknown kind %d", s, k)
		}
	})
}
