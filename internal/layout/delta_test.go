package layout_test

import (
	"slices"
	"testing"

	"dismastd/internal/layout"
	"dismastd/internal/mat"
	"dismastd/internal/mttkrp"
	"dismastd/internal/tensor"
	"dismastd/internal/xrand"
)

// deltaFixture appends a small order-3 region in two batches and
// returns the delta plus the equivalent tensor entries.
func deltaFixture(t *testing.T) (*layout.Delta, *tensor.Tensor) {
	t.Helper()
	d := layout.NewDelta([]int{4, 3, 2})
	b := tensor.NewBuilder([]int{4, 3, 2})
	batches := [][]struct {
		i, j, k int
		v       float64
	}{
		{{0, 0, 0, 1.5}, {2, 1, 1, -2}, {0, 2, 1, 3}},
		{{3, 0, 0, 0.5}, {0, 1, 1, 4}, {2, 1, 0, 1}},
	}
	for _, batch := range batches {
		var coords []int32
		var vals []float64
		for _, e := range batch {
			coords = append(coords, int32(e.i), int32(e.j), int32(e.k))
			vals = append(vals, e.v)
			b.Append([]int{e.i, e.j, e.k}, e.v)
		}
		d.Append(coords, vals)
	}
	return d, b.Build()
}

// TestDeltaRowAccumulateMatchesMTTKRP checks every row of every mode
// against the full MTTKRP of the equivalent tensor: summing the
// per-row contributions must reproduce the whole-region kernel's
// values (same products, possibly different entry order, so compare
// within floating-point slack).
func TestDeltaRowAccumulateMatchesMTTKRP(t *testing.T) {
	d, x := deltaFixture(t)
	src := xrand.New(7)
	const r = 3
	factors := make([]*mat.Dense, x.Order())
	for m, size := range x.Dims {
		factors[m] = mat.RandomUniform(size, r, src)
	}
	tmp := make([]float64, r)
	for m := 0; m < x.Order(); m++ {
		want := mttkrp.Compute(x, factors, m)
		got := mat.New(x.Dims[m], r)
		for i := 0; i < x.Dims[m]; i++ {
			d.AccumulateRow(got.Row(i), factors, m, int32(i), tmp)
		}
		if diff := mat.MaxAbsDiff(want, got); diff > 1e-12 {
			t.Fatalf("mode %d: delta row accumulation differs from MTTKRP by %g", m, diff)
		}
	}
}

func TestDeltaRowNNZAndEntries(t *testing.T) {
	d, x := deltaFixture(t)
	if d.NNZ() != x.NNZ() {
		t.Fatalf("NNZ = %d, want %d", d.NNZ(), x.NNZ())
	}
	for m := range d.Dims() {
		hist := x.SliceNNZ(m)
		for i := range hist {
			if got := d.RowNNZ(m, int32(i)); int64(got) != hist[i] {
				t.Fatalf("mode %d row %d: RowNNZ = %d, want %d", m, i, got, hist[i])
			}
		}
	}
	// The entry multiset survives a rebuild through a Builder.
	b := tensor.NewBuilder(d.Dims())
	var buf []int
	for e := 0; e < d.NNZ(); e++ {
		var v float64
		buf, v = d.Entry(e, buf)
		b.Append(buf, v)
	}
	if y := b.Build(); !slices.Equal(y.Dims, x.Dims) || !slices.Equal(y.Coords, x.Coords) || !slices.Equal(y.Vals, x.Vals) {
		t.Fatal("rebuilt tensor differs from source entries")
	}
}

func TestDeltaGrowAndReset(t *testing.T) {
	d, _ := deltaFixture(t)
	d.Grow([]int{6, 3, 2})
	d.Append([]int32{5, 0, 1}, []float64{9})
	if d.RowNNZ(0, 5) != 1 {
		t.Fatal("grown row did not receive its entry")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("shrinking Grow did not panic")
		}
	}()
	defer func() {
		d.Reset()
		if d.NNZ() != 0 || d.RowNNZ(0, 5) != 0 {
			t.Fatal("Reset left entries behind")
		}
		if d.Dims()[0] != 6 {
			t.Fatal("Reset changed dims")
		}
		d.Append([]int32{5, 2, 1}, []float64{1}) // still valid after reset
		d.Grow([]int{5, 3, 2})
	}()
}

// TestDeltaAppendNoAllocWarm pins the warmed append/accumulate path at
// zero allocations: after Reset, re-appending within the retained
// capacity must not touch the heap.
func TestDeltaAppendNoAllocWarm(t *testing.T) {
	d := layout.NewDelta([]int{8, 8, 8})
	coords := []int32{1, 2, 3, 4, 5, 6}
	vals := []float64{1, 2}
	factors := []*mat.Dense{mat.New(8, 2), mat.New(8, 2)}
	factors = append(factors, mat.New(8, 2))
	acc := make([]float64, 2)
	tmp := make([]float64, 2)
	for i := 0; i < 4; i++ { // warm capacity
		d.Append(coords, vals)
	}
	d.Reset()
	allocs := testing.AllocsPerRun(100, func() {
		d.Reset()
		for i := 0; i < 4; i++ {
			d.Append(coords, vals)
		}
		d.AccumulateRow(acc, factors, 0, 1, tmp)
	})
	if allocs != 0 {
		t.Fatalf("warmed append/accumulate allocates %v per run", allocs)
	}
}
