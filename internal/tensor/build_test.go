package tensor

import (
	"math"
	"sort"
	"testing"

	"dismastd/internal/xrand"
)

// comparisonBuild is Build as a comparison sort, kept as the oracle:
// sort.Slice's pdqsort orders the entry indices from append order,
// then each run of equal coordinates is summed in that order and the
// zero sums are dropped.
func comparisonBuild(b *Builder) *Tensor {
	n := len(b.dims)
	nnz := len(b.vals)
	perm := make([]int, nnz)
	for i := range perm {
		perm[i] = i
	}
	sort.Slice(perm, func(x, y int) bool {
		cx := b.coords[perm[x]*n : perm[x]*n+n]
		cy := b.coords[perm[y]*n : perm[y]*n+n]
		for m := 0; m < n; m++ {
			if cx[m] != cy[m] {
				return cx[m] < cy[m]
			}
		}
		return false
	})
	t := &Tensor{Dims: b.dims}
	for _, e := range perm {
		c := b.coords[e*n : e*n+n]
		if len(t.Vals) > 0 && sameCoords(t.Coords[len(t.Coords)-n:], c) {
			t.Vals[len(t.Vals)-1] += b.vals[e]
			continue
		}
		t.Coords = append(t.Coords, c...)
		t.Vals = append(t.Vals, b.vals[e])
	}
	w := 0
	for e := 0; e < len(t.Vals); e++ {
		if t.Vals[e] == 0 {
			continue
		}
		if w != e {
			copy(t.Coords[w*n:w*n+n], t.Coords[e*n:e*n+n])
			t.Vals[w] = t.Vals[e]
		}
		w++
	}
	t.Coords = t.Coords[:w*n]
	t.Vals = t.Vals[:w]
	return t
}

// builderPair returns two Builders holding the same entries, one for
// Build and one for the oracle.
func builderPair(dims []int, coords [][]int, vals []float64) (*Builder, *Builder) {
	a, b := NewBuilder(dims), NewBuilder(dims)
	for e, c := range coords {
		a.Append(c, vals[e])
		b.Append(c, vals[e])
	}
	return a, b
}

// checkBuildMatchesOracle asserts that Build and the comparison-sort
// oracle agree on dims, coordinates and every value's bits. Two NaNs
// match whatever their sign and payload: Go does not specify which NaN
// a sum of NaNs returns, and the compiler may swap the operands of a
// commutative addition, so those bits differ between two call sites
// even when the addends come in the same order.
func checkBuildMatchesOracle(t *testing.T, dims []int, coords [][]int, vals []float64) {
	t.Helper()
	a, b := builderPair(dims, coords, vals)
	got, want := a.Build(), comparisonBuild(b)
	if len(got.Dims) != len(want.Dims) || got.NNZ() != want.NNZ() || len(got.Coords) != len(want.Coords) {
		t.Fatalf("dims %v: Build has %d entries (%d coords), oracle %d (%d coords)",
			dims, got.NNZ(), len(got.Coords), want.NNZ(), len(want.Coords))
	}
	for m := range want.Dims {
		if got.Dims[m] != want.Dims[m] {
			t.Fatalf("Build dims %v, oracle %v", got.Dims, want.Dims)
		}
	}
	n := len(dims)
	for e := 0; e < want.NNZ(); e++ {
		for m := 0; m < n; m++ {
			if got.Coords[e*n+m] != want.Coords[e*n+m] {
				t.Fatalf("dims %v entry %d: Build coords %v, oracle %v", dims, e, got.Coords[e*n:e*n+n], want.Coords[e*n:e*n+n])
			}
		}
		if g, w := got.Vals[e], want.Vals[e]; math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("dims %v entry %d at %v: Build value %v (%#x), oracle %v (%#x)", dims, e, want.Coords[e*n:e*n+n],
				got.Vals[e], math.Float64bits(got.Vals[e]), want.Vals[e], math.Float64bits(want.Vals[e]))
		}
	}
}

// TestBuildSumsRepeatsInComparisonOrder pins the observable-order rule:
// a cell appended as 0.1, 0.2, 0.3 ahead of ten other cells is summed
// by the comparison sort as 0.3+0.2+0.1 = 0.6, where append order gives
// 0.6000000000000001. Build must return the former.
func TestBuildSumsRepeatsInComparisonOrder(t *testing.T) {
	dims := []int{12}
	coords := [][]int{{6}, {6}, {6}}
	vals := []float64{0.1, 0.2, 0.3}
	for _, c := range []int{1, 2, 3, 4, 5, 7, 8, 9, 10, 11} {
		coords = append(coords, []int{c})
		vals = append(vals, 1)
	}
	a, b := builderPair(dims, coords, vals)
	got, want := a.Build().At([]int{6}), comparisonBuild(b).At([]int{6})
	if appendOrder := (vals[0] + vals[1]) + vals[2]; appendOrder == want {
		t.Fatalf("append-order sum %v equals the oracle's: the input no longer tells the orders apart", appendOrder)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Build sums the repeated cell to %v, the comparison sort to %v", got, want)
	}
	checkBuildMatchesOracle(t, dims, coords, vals)
}

// fuzzSizes are the mode sizes FuzzBuildMatchesComparisonSort draws
// from: size 1 (no pass), sizes that need one to four 8-bit digits, and
// the edges of each digit count up to 2³¹−1.
var fuzzSizes = [16]int{1, 2, 3, 7, 100, 255, 256, 257, 4800, 65535, 65536, 70001, 1<<24 - 1, 1<<24 + 3, 1<<30 + 5, 1<<31 - 1}

// fuzzValue draws one value: one that cancels its cell's previous
// repeat, ±0, a subnormal, a NaN, an infinity, a decimal whose sums
// round differently by order, or an arbitrary float. kinds masks out
// the NaN (bit 0), ±0 (bit 1), subnormals (bit 2) and cancellation
// (bit 3), so some inputs carry none of them.
func fuzzValue(src *xrand.Source, kinds uint8, prev float64, first bool) float64 {
	for {
		switch src.Intn(9) {
		case 0:
			if kinds&1 != 0 {
				return math.Float64frombits(0x7ff8000000000000 | src.Uint64()&0xfffff)
			}
		case 1:
			if kinds&2 != 0 {
				return math.Copysign(0, float64(src.Intn(2))-0.5)
			}
		case 2:
			if kinds&4 != 0 {
				return math.Float64frombits(src.Uint64() & 0x800fffffffffffff)
			}
		case 3:
			if kinds&8 != 0 && !first {
				return -prev
			}
		case 4:
			return math.Inf(src.Intn(2)*2 - 1)
		case 5, 6:
			return []float64{0.1, 0.2, 0.3, -0.7, 1e16, 1}[src.Intn(6)]
		default:
			return src.NormFloat64() * 1e3
		}
	}
}

// FuzzBuildMatchesComparisonSort checks Build against the comparison
// sort on inputs of order 1–5, fuzzer-chosen mode sizes, and cells each
// appended 0–4 times in shuffled order, so both the radix path and the
// comparison path run: coordinates and value bits must match exactly.
func FuzzBuildMatchesComparisonSort(f *testing.F) {
	f.Add(uint8(2), uint64(0x8a), uint16(200), uint64(1), uint8(0))
	f.Add(uint8(0), uint64(0xf), uint16(50), uint64(2), uint8(15))
	f.Add(uint8(4), uint64(0xfedcb), uint16(300), uint64(3), uint8(6))
	f.Add(uint8(3), uint64(0x0f0f), uint16(80), uint64(4), uint8(1))
	f.Add(uint8(2), uint64(0x108), uint16(1000), uint64(5), uint8(8))
	f.Fuzz(func(t *testing.T, order uint8, sizes uint64, cells uint16, seed uint64, kinds uint8) {
		n := int(order)%5 + 1
		dims := make([]int, n)
		for m := range dims {
			dims[m] = fuzzSizes[sizes>>(4*m)&15]
		}
		src := xrand.New(seed)
		var coords [][]int
		var vals []float64
		for c := 0; c < int(cells)%1024; c++ {
			cell := make([]int, n)
			for m, d := range dims {
				switch src.Intn(4) {
				case 0:
					cell[m] = d - 1 // the top digit's last bucket
				case 1:
					cell[m] = src.Intn(min(d, 4))
				default:
					cell[m] = src.Intn(d)
				}
			}
			prev := 0.0
			for r, reps := 0, src.Intn(5); r < reps; r++ {
				prev = fuzzValue(src, kinds, prev, r == 0)
				coords = append(coords, cell)
				vals = append(vals, prev)
			}
		}
		shuffled, shuffledVals := make([][]int, len(coords)), make([]float64, len(vals))
		for i, j := range src.Perm(len(coords)) {
			shuffled[i], shuffledVals[i] = coords[j], vals[j]
		}
		checkBuildMatchesOracle(t, dims, shuffled, shuffledVals)
	})
}
