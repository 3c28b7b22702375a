package tensor

import (
	"testing"
	"testing/quick"

	"dismastd/internal/xrand"
)

// small3 builds a 3x4x2 tensor with a handful of entries.
func small3(t *testing.T) *Tensor {
	t.Helper()
	b := NewBuilder([]int{3, 4, 2})
	b.Append([]int{0, 0, 0}, 1)
	b.Append([]int{2, 3, 1}, 2)
	b.Append([]int{1, 2, 0}, 3)
	b.Append([]int{0, 3, 1}, 4)
	return b.Build()
}

// randomTensor builds a random sparse tensor with the given dims and
// approximately the given number of entries.
func randomTensor(dims []int, nnz int, seed uint64) *Tensor {
	src := xrand.New(seed)
	b := NewBuilder(dims)
	idx := make([]int, len(dims))
	for e := 0; e < nnz; e++ {
		for m, d := range dims {
			idx[m] = src.Intn(d)
		}
		b.Append(idx, src.Float64()+0.1)
	}
	return b.Build()
}

func TestBuilderSortsAndLooksUp(t *testing.T) {
	x := small3(t)
	if x.NNZ() != 4 {
		t.Fatalf("NNZ = %d", x.NNZ())
	}
	if got := x.At([]int{1, 2, 0}); got != 3 {
		t.Fatalf("At = %v", got)
	}
	if got := x.At([]int{1, 1, 1}); got != 0 {
		t.Fatalf("At of absent = %v", got)
	}
	// Coordinates must be sorted lexicographically.
	n := x.Order()
	for e := 1; e < x.NNZ(); e++ {
		prev := x.Coords[(e-1)*n : e*n]
		cur := x.Coords[e*n : (e+1)*n]
		less := false
		for m := 0; m < n; m++ {
			if prev[m] != cur[m] {
				less = prev[m] < cur[m]
				break
			}
		}
		if !less {
			t.Fatalf("entries %d,%d out of order: %v %v", e-1, e, prev, cur)
		}
	}
}

func TestBuilderDeduplicatesAndDropsZeros(t *testing.T) {
	b := NewBuilder([]int{2, 2})
	b.Append([]int{0, 1}, 1)
	b.Append([]int{0, 1}, 2)  // dup, summed -> 3
	b.Append([]int{1, 1}, 5)  //
	b.Append([]int{1, 1}, -5) // cancels to zero -> dropped
	b.Append([]int{1, 0}, 0)  // explicit zero -> dropped
	x := b.Build()
	if x.NNZ() != 1 {
		t.Fatalf("NNZ = %d, want 1", x.NNZ())
	}
	if x.At([]int{0, 1}) != 3 {
		t.Fatalf("dedup sum = %v", x.At([]int{0, 1}))
	}
}

func TestBuilderPanicsOutOfRange(t *testing.T) {
	b := NewBuilder([]int{2, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range Append did not panic")
		}
	}()
	b.Append([]int{2, 0}, 1)
}

func TestNorm(t *testing.T) {
	b := NewBuilder([]int{2, 2})
	b.Append([]int{0, 0}, 3)
	b.Append([]int{1, 1}, 4)
	x := b.Build()
	if x.Norm() != 5 {
		t.Fatalf("Norm = %v", x.Norm())
	}
	if x.NormSq() != 25 {
		t.Fatalf("NormSq = %v", x.NormSq())
	}
}

func TestSliceNNZ(t *testing.T) {
	x := small3(t)
	got := x.SliceNNZ(0)
	want := []int64{2, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SliceNNZ(0) = %v", got)
		}
	}
	got = x.SliceNNZ(2)
	if got[0] != 2 || got[1] != 2 {
		t.Fatalf("SliceNNZ(2) = %v", got)
	}
	// Slice histograms must sum to nnz for every mode.
	for m := 0; m < x.Order(); m++ {
		var sum int64
		for _, c := range x.SliceNNZ(m) {
			sum += c
		}
		if sum != int64(x.NNZ()) {
			t.Fatalf("mode %d histogram sums to %d, nnz %d", m, sum, x.NNZ())
		}
	}
}

func TestPrefixAndComplementPartition(t *testing.T) {
	x := randomTensor([]int{10, 8, 6}, 200, 1)
	old := []int{7, 5, 4}
	pre := x.Prefix(old)
	comp := x.Complement(old)
	if pre.NNZ()+comp.NNZ() != x.NNZ() {
		t.Fatalf("prefix %d + complement %d != nnz %d", pre.NNZ(), comp.NNZ(), x.NNZ())
	}
	// Every prefix entry is inside old bounds; every complement entry
	// has at least one coordinate in the growth range.
	buf := make([]int, 3)
	for e := 0; e < pre.NNZ(); e++ {
		c := pre.Coord(e, buf)
		for m := range old {
			if c[m] >= old[m] {
				t.Fatalf("prefix entry %v beyond old dims %v", c, old)
			}
		}
	}
	for e := 0; e < comp.NNZ(); e++ {
		c := comp.Coord(e, buf)
		inside := true
		for m := range old {
			if c[m] >= old[m] {
				inside = false
			}
		}
		if inside {
			t.Fatalf("complement entry %v inside old dims %v", c, old)
		}
		if x.At(c) != comp.Val(e) {
			t.Fatalf("complement value mismatch at %v", c)
		}
	}
}

func TestToDenseRoundtrip(t *testing.T) {
	x := small3(t)
	d := x.ToDense()
	if len(d) != 3*4*2 {
		t.Fatalf("dense length %d", len(d))
	}
	// dense offset of [2,3,1] with strides (8, 2, 1)
	if d[2*8+3*2+1] != 2 {
		t.Fatalf("dense value mismatch: %v", d[2*8+3*2+1])
	}
	nonzeros := 0
	for _, v := range d {
		if v != 0 {
			nonzeros++
		}
	}
	if nonzeros != x.NNZ() {
		t.Fatalf("dense nonzeros %d != nnz %d", nonzeros, x.NNZ())
	}
}

func TestEqual(t *testing.T) {
	a := small3(t)
	b := small3(t)
	if !Equal(a, b) {
		t.Fatal("identical tensors not Equal")
	}
	c := randomTensor([]int{3, 4, 2}, 4, 9)
	if Equal(a, c) {
		t.Fatal("different tensors reported Equal")
	}
}

func TestPrefixIdempotent(t *testing.T) {
	if err := quick.Check(func(seed uint16) bool {
		x := randomTensor([]int{8, 8, 8}, 100, uint64(seed)+1)
		full := x.Prefix([]int{8, 8, 8})
		return Equal(x, full)
	}, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestSequenceValidation(t *testing.T) {
	x := randomTensor([]int{6, 6, 6}, 80, 3)
	if _, err := NewSequence(x, nil); err == nil {
		t.Fatal("empty steps accepted")
	}
	if _, err := NewSequence(x, [][]int{{4, 4, 4}, {3, 4, 4}}); err == nil {
		t.Fatal("shrinking steps accepted")
	}
	if _, err := NewSequence(x, [][]int{{4, 4, 7}}); err == nil {
		t.Fatal("oversized step accepted")
	}
	if _, err := NewSequence(x, [][]int{{4, 4}}); err == nil {
		t.Fatal("wrong-order step accepted")
	}
	seq, err := NewSequence(x, [][]int{{3, 4, 5}, {6, 6, 6}})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Len() != 2 {
		t.Fatalf("Len = %d", seq.Len())
	}
}

func TestSequenceSnapshotsNest(t *testing.T) {
	x := randomTensor([]int{10, 10, 10}, 300, 4)
	seq, err := NewSequence(x, [][]int{{5, 6, 7}, {8, 8, 9}, {10, 10, 10}})
	if err != nil {
		t.Fatal(err)
	}
	prev := seq.Snapshot(0)
	for i := 1; i < seq.Len(); i++ {
		cur := seq.Snapshot(i)
		if prev.NNZ() > cur.NNZ() {
			t.Fatalf("snapshot %d lost entries", i)
		}
		// The previous snapshot is the prefix of the current one.
		if !Equal(prev, cur.Prefix(seq.Dims(i-1))) {
			t.Fatalf("snapshot %d is not a superset of snapshot %d", i, i-1)
		}
		// Delta + previous = current.
		delta := seq.Delta(i)
		if delta.NNZ()+prev.NNZ() != cur.NNZ() {
			t.Fatalf("delta nnz %d + prev %d != cur %d", delta.NNZ(), prev.NNZ(), cur.NNZ())
		}
		prev = cur
	}
	if seq.Delta(0).NNZ() != seq.Snapshot(0).NNZ() {
		t.Fatal("Delta(0) should be the whole first snapshot")
	}
}

func TestAtDimensionPanic(t *testing.T) {
	x := small3(t)
	defer func() {
		if recover() == nil {
			t.Fatal("At with wrong arity did not panic")
		}
	}()
	x.At([]int{1, 2})
}

func BenchmarkBuild(b *testing.B) {
	src := xrand.New(1)
	const nnz = 100000
	dims := []int{1000, 1000, 200}
	coords := make([][]int, nnz)
	for e := range coords {
		coords[e] = []int{src.Intn(dims[0]), src.Intn(dims[1]), src.Intn(dims[2])}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bu := NewBuilder(dims)
		for e := range coords {
			bu.Append(coords[e], 1)
		}
		_ = bu.Build()
	}
}

// benchBuild times Build alone on fresh Builders holding the given
// entries: filling the Builder runs with the timer stopped.
func benchBuild(b *testing.B, dims []int, coords []int32, vals []float64) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		bu := NewBuilder(dims)
		bu.coords = append(bu.coords, coords...)
		bu.vals = append(bu.vals, vals...)
		b.StartTimer()
		_ = bu.Build()
	}
}

// BenchmarkBuildShuffled1M builds 1 M distinct cells of a 4800×180×128
// tensor (the bulk_nnz workload's mode sizes) appended in random order:
// no cell repeats, so Build takes the radix path.
func BenchmarkBuildShuffled1M(b *testing.B) {
	dims := []int{4800, 180, 128}
	const nnz = 1 << 20
	src := xrand.New(2)
	seen := make(map[[3]int32]bool, nnz)
	coords := make([]int32, 0, 3*nnz)
	vals := make([]float64, 0, nnz)
	for len(vals) < nnz {
		c := [3]int32{int32(src.Intn(dims[0])), int32(src.Intn(dims[1])), int32(src.Intn(dims[2]))}
		if seen[c] {
			continue
		}
		seen[c] = true
		coords = append(coords, c[:]...)
		vals = append(vals, float64(1+src.Intn(5)))
	}
	benchBuild(b, dims, coords, vals)
}

// BenchmarkBuildRepeated builds 100 k cells of a 4800×180×128 tensor,
// each appended three times, in random order: the repeats' sum order is
// observable, so Build takes the comparison path.
func BenchmarkBuildRepeated(b *testing.B) {
	dims := []int{4800, 180, 128}
	const cells, reps = 100000, 3
	src := xrand.New(3)
	coords := make([]int32, 0, 3*cells*reps)
	vals := make([]float64, 0, cells*reps)
	for e := 0; e < cells; e++ {
		c := []int32{int32(src.Intn(dims[0])), int32(src.Intn(dims[1])), int32(src.Intn(dims[2]))}
		for r := 0; r < reps; r++ {
			coords = append(coords, c...)
			vals = append(vals, src.Float64())
		}
	}
	perm := src.Perm(len(vals))
	shuffled, shuffledVals := make([]int32, len(coords)), make([]float64, len(vals))
	for i, j := range perm {
		copy(shuffled[3*i:3*i+3], coords[3*j:3*j+3])
		shuffledVals[i] = vals[j]
	}
	benchBuild(b, dims, shuffled, shuffledVals)
}

func BenchmarkComplement(b *testing.B) {
	x := randomTensor([]int{500, 500, 100}, 200000, 7)
	old := []int{400, 400, 80}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.Complement(old)
	}
}
