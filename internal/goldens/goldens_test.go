// Package goldens pins the numeric engines to bitwise-exact golden
// hashes recorded from the seed implementation. Every engine below is
// fully deterministic (seeded PRNG, deterministic reduction trees), so
// any refactor of the kernel or workspace plumbing that changes even one
// bit of one factor entry — a reordered floating-point sum, a stale
// scratch buffer, a missed zeroing — flips the hash and fails here.
//
// The hashes were produced by the pre-workspace (allocating) engines;
// the workspace-threaded in-place engines must reproduce them exactly.
package goldens

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"dismastd/internal/completion"
	"dismastd/internal/core"
	"dismastd/internal/dmsmg"
	"dismastd/internal/dtd"
	"dismastd/internal/mat"
	"dismastd/internal/partition"
	"dismastd/internal/tensor"
	"dismastd/internal/xrand"
)

// hashFactors folds the exact bit patterns of every factor entry (plus
// the shapes) into one FNV-1a checksum.
func hashFactors(factors []*mat.Dense) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, f := range factors {
		binary.LittleEndian.PutUint64(buf[:], uint64(f.Rows)<<32|uint64(f.Cols))
		h.Write(buf[:])
		for _, v := range f.Data {
			binary.LittleEndian.PutUint64(buf[:], mathFloat64bits(v))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

func sparseRandom(dims []int, nnz int, seed uint64) *tensor.Tensor {
	src := xrand.New(seed)
	b := tensor.NewBuilder(dims)
	idx := make([]int, len(dims))
	for e := 0; e < nnz; e++ {
		for m, d := range dims {
			idx[m] = src.Intn(d)
		}
		b.Append(idx, src.Float64()+0.5)
	}
	return b.Build()
}

func TestCPDecomposeGolden(t *testing.T) {
	x := sparseRandom([]int{12, 10, 8}, 500, 3)
	st, _, err := dtd.Init(x, dtd.Options{Rank: 4, MaxIters: 6, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	checkHash(t, "cp", hashFactors(st.Factors), goldCP)
}

func dtdFixture(t *testing.T) (*dtd.State, *tensor.Tensor, dtd.Options) {
	t.Helper()
	full := sparseRandom([]int{12, 10, 8}, 600, 5)
	prevSnap := full.Prefix([]int{9, 8, 6})
	opts := dtd.Options{Rank: 3, MaxIters: 5, Mu: 0.7, Seed: 11}
	prev, _, err := dtd.Init(prevSnap, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.MaxIters = 6
	return prev, full, opts
}

func TestDTDStepGolden(t *testing.T) {
	prev, full, opts := dtdFixture(t)
	cur, _, err := dtd.Step(prev, full, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkHash(t, "dtd", hashFactors(cur.Factors), goldDTD)
}

func TestCoreStepGolden(t *testing.T) {
	prev, full, opts := dtdFixture(t)
	for _, tc := range []struct {
		name   string
		method partition.Method
		want   uint64
	}{
		{"gtp", partition.GTPMethod, goldCoreGTP},
		{"mtp", partition.MTPMethod, goldCoreMTP},
	} {
		cur, _, err := core.Step(prev, full, core.Options{
			Rank: opts.Rank, MaxIters: opts.MaxIters, Mu: opts.Mu, Seed: opts.Seed,
			Workers: 3, Method: tc.method,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkHash(t, "core/"+tc.name, hashFactors(cur.Factors), tc.want)
	}
}

func TestDMSMGGolden(t *testing.T) {
	x := sparseRandom([]int{12, 10, 8}, 500, 3)
	factors, _, err := dmsmg.Decompose(x, dmsmg.Options{Rank: 3, MaxIters: 5, Seed: 7, Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	checkHash(t, "dmsmg", hashFactors(factors), goldDMSMG)
}

func TestCompletionGolden(t *testing.T) {
	x := sparseRandom([]int{12, 10, 8}, 400, 13)
	res, err := completion.Decompose(x, completion.Options{Rank: 3, MaxIters: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	checkHash(t, "completion", hashFactors(res.Factors), goldCompletion)

	dres, err := completion.DecomposeDistributed(x, completion.DistributedOptions{
		Options: completion.Options{Rank: 3, MaxIters: 5, Seed: 7},
		Workers: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkHash(t, "completion/distributed", hashFactors(dres.Factors), goldCompletionDist)
}

func checkHash(t *testing.T, name string, got, want uint64) {
	t.Helper()
	if want == 0 {
		t.Logf("golden %s = %#016x", name, got)
		return
	}
	if got != want {
		t.Errorf("%s factors hash %#016x, want golden %#016x (bitwise drift from the seed implementation)", name, got, want)
	}
}
