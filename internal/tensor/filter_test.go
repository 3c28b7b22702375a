package tensor

import (
	"fmt"
	"testing"

	"dismastd/internal/par"
	"dismastd/internal/xrand"
)

// builderFilter is the pre-direct-copy construction of Prefix and
// Complement, kept as the oracle: push every entry whose membership in
// the box equals inside through a Builder, which sorts and deduplicates.
func builderFilter(t *Tensor, box []int, inside bool, dims []int) *Tensor {
	b := NewBuilder(dims)
	buf := make([]int, t.Order())
	for e := 0; e < t.NNZ(); e++ {
		if t.inPrefix(e, box) == inside {
			b.Append(t.Coord(e, buf), t.Vals[e])
		}
	}
	return b.Build()
}

// inPrefix reports whether entry e lies in the prefix box of dims.
func (t *Tensor) inPrefix(e int, dims []int) bool {
	base := e * t.Order()
	for m, d := range dims {
		if int(t.Coords[base+m]) >= d {
			return false
		}
	}
	return true
}

// filterPools are the pools the complement is extracted on besides the
// caller: one thread (the nil pool), and 2, 3 and 8 chunks of bitmap
// words, so a few hundred entries put chunk boundaries between words.
func filterPools(tb testing.TB) []*par.Pool {
	pools := []*par.Pool{par.New(1), par.New(2), par.New(3), par.New(8)}
	tb.Cleanup(func() {
		for _, p := range pools {
			p.Close()
		}
	})
	return pools
}

// checkFilterAgainstBuilder asserts that Prefix(box) and Complement(box)
// — the latter on the caller and on each of pools — equal their
// Builder-built oracles entry for entry — dims, NNZ, coordinates,
// values, NormSq — and that each result is canonical (coordinates
// strictly increasing: sorted, no duplicates).
func checkFilterAgainstBuilder(t *testing.T, x *Tensor, box []int, pools []*par.Pool) {
	t.Helper()
	pre, comp := x.Prefix(box), x.Complement(box)
	if pre.NNZ()+comp.NNZ() != x.NNZ() {
		t.Fatalf("prefix + complement of %v hold %d entries, tensor has %d", box, pre.NNZ()+comp.NNZ(), x.NNZ())
	}
	type result struct {
		name      string
		got, want *Tensor
	}
	wantComp := builderFilter(x, box, false, x.Dims)
	results := []result{
		{"Prefix", pre, builderFilter(x, box, true, box)},
		{"Complement", comp, wantComp},
	}
	for _, p := range pools {
		results = append(results, result{fmt.Sprintf("Complement on %d threads", p.Threads()), x.Complement(box, p), wantComp})
	}
	for _, tc := range results {
		got, want := tc.got, tc.want
		if !Equal(got, want) {
			t.Fatalf("%s(%v) of dims %v differs from the Builder-built result: nnz %d vs %d, dims %v vs %v",
				tc.name, box, x.Dims, got.NNZ(), want.NNZ(), got.Dims, want.Dims)
		}
		if got.NormSq() != want.NormSq() {
			t.Fatalf("%s(%v): NormSq %v, want %v", tc.name, box, got.NormSq(), want.NormSq())
		}
		if len(got.Coords) != got.NNZ()*got.Order() {
			t.Fatalf("%s(%v): %d coords for %d entries of order %d", tc.name, box, len(got.Coords), got.NNZ(), got.Order())
		}
		n := got.Order()
		idx := make([]int, n)
		for e := 1; e < got.NNZ(); e++ {
			if compareCoords(got.Coords[(e-1)*n:e*n], got.Coord(e, idx)) >= 0 {
				t.Fatalf("%s(%v): entries %d and %d out of canonical order", tc.name, box, e-1, e)
			}
		}
	}
}

// TestFilterMatchesBuilder is the randomized property: over random
// orders, shapes, occupancies and prefix boxes — the empty box, the
// full box and boxes with some modes empty or full among them — the
// direct filtered copy is the Builder-built tensor, on every pool. The
// last 60 trials have modes of up to 40 and up to 3000 entries, so each
// of 8 chunks holds several bitmap words.
func TestFilterMatchesBuilder(t *testing.T) {
	pools := filterPools(t)
	src := xrand.New(20240915)
	for trial := 0; trial < 360; trial++ {
		n, maxDim, maxNNZ := 1+src.Intn(4), 9, 400
		if trial >= 300 {
			n, maxDim, maxNNZ = 2+src.Intn(3), 40, 3000
		}
		dims := make([]int, n)
		for m := range dims {
			dims[m] = 1 + src.Intn(maxDim)
		}
		x := randomTensor(dims, src.Intn(maxNNZ), uint64(trial))
		empty := make([]int, n)
		checkFilterAgainstBuilder(t, x, empty, pools)
		checkFilterAgainstBuilder(t, x, dims, pools)
		for rep := 0; rep < 4; rep++ {
			box := make([]int, n)
			for m, d := range dims {
				box[m] = src.Intn(d + 1)
			}
			checkFilterAgainstBuilder(t, x, box, pools)
		}
	}
}

// FuzzFilterMatchesBuilder drives the same property from fuzzer-chosen
// shapes and boxes. boxBits picks each mode's bound: two bits per mode
// select empty, full, or one of two interior cuts.
func FuzzFilterMatchesBuilder(f *testing.F) {
	f.Add(uint8(3), uint8(6), uint16(100), uint64(1), uint8(0b00011011))
	f.Add(uint8(1), uint8(9), uint16(30), uint64(2), uint8(0))    // empty box
	f.Add(uint8(4), uint8(3), uint16(200), uint64(3), uint8(255)) // full box
	f.Add(uint8(2), uint8(1), uint16(0), uint64(4), uint8(0b0110))
	f.Add(uint8(2), uint8(12), uint16(500), uint64(5), uint8(0b100101)) // several bitmap words before the mode-0 suffix
	pools := filterPools(f)
	f.Fuzz(func(t *testing.T, order, dimSpread uint8, nnz uint16, seed uint64, boxBits uint8) {
		n := int(order)%4 + 1
		dims := make([]int, n)
		box := make([]int, n)
		for m := range dims {
			dims[m] = 1 + (int(dimSpread)+m*3)%16
			switch (boxBits >> (2 * m)) & 3 {
			case 0:
				box[m] = 0
			case 1:
				box[m] = dims[m] / 2
			case 2:
				box[m] = dims[m] - dims[m]/4
			case 3:
				box[m] = dims[m]
			}
		}
		checkFilterAgainstBuilder(t, randomTensor(dims, int(nnz)%512, seed), box, pools)
	})
}

// TestFilterAllocationsIndependentOfNNZ guards the direct copy: mark
// and count, allocate once, copy. Complement and Prefix allocate the
// same small constant number of objects whether the tensor has a few
// hundred entries or a hundred times that — no append ever grows a
// slice.
func TestFilterAllocationsIndependentOfNNZ(t *testing.T) {
	dims := []int{60, 50, 40}
	old := []int{45, 40, 30}
	allocs := func(nnz int, filter func(*Tensor) *Tensor) float64 {
		x := randomTensor(dims, nnz, 9)
		return testing.AllocsPerRun(10, func() { _ = filter(x) })
	}
	for name, filter := range map[string]func(*Tensor) *Tensor{
		"Complement": func(x *Tensor) *Tensor { return x.Complement(old) },
		"Prefix":     func(x *Tensor) *Tensor { return x.Prefix(old) },
	} {
		small, large := allocs(300, filter), allocs(30000, filter)
		if small != large || large > 5 {
			t.Errorf("%s allocates %v times at nnz=300 and %v at nnz=30000, want equal and at most 5 (keep mask, tensor, dims, coords, vals)",
				name, small, large)
		}
	}
}
