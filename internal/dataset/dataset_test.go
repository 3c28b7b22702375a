package dataset

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"dismastd/internal/partition"
	"dismastd/internal/tensor"
)

func TestPresetPreservesProportions(t *testing.T) {
	for _, k := range Kinds {
		spec := Preset(k, 50000, 1)
		paperDims, _ := PaperRow(k)
		// Mode ratios follow Table III (up to the mode floor of 8 and
		// integer rounding), and the tensor has room to stay sparse.
		cells := 1.0
		for m := 0; m < 3; m++ {
			if spec.Dims[m] < 128 {
				t.Fatalf("%v mode %d: dim %d below floor", k, m, spec.Dims[m])
			}
			cells *= float64(spec.Dims[m])
		}
		if cells < 8*50000 {
			t.Fatalf("%v: only %v cells for 50000 entries", k, cells)
		}
		// The I/J ratio follows Table III whenever neither mode was
		// clamped by the floor (capacity inflation scales both alike).
		if spec.Dims[0] > 600 && spec.Dims[1] > 600 {
			wantRatio := paperDims[0] / paperDims[1]
			gotRatio := float64(spec.Dims[0]) / float64(spec.Dims[1])
			if math.Abs(gotRatio-wantRatio)/wantRatio > 0.05 {
				t.Fatalf("%v: I/J ratio %v, paper %v", k, gotRatio, wantRatio)
			}
		}
	}
}

func TestGenerateNNZCloseToTarget(t *testing.T) {
	for _, k := range Kinds {
		x := Preset(k, 20000, 2).Generate()
		if x.NNZ() < 17000 || x.NNZ() > 20000 {
			t.Fatalf("%v: nnz %d for target 20000", k, x.NNZ())
		}
		if x.Order() != 3 {
			t.Fatalf("%v: order %d", k, x.Order())
		}
	}
}

func TestRatingValues(t *testing.T) {
	x := Preset(Netflix, 5000, 3).Generate()
	for e := 0; e < x.NNZ(); e++ {
		v := x.Val(e)
		// Merged duplicates may exceed 5, but the bulk must be 1..5.
		if v < 1 {
			t.Fatalf("rating %v below 1", v)
		}
	}
	y := Preset(Synthetic, 5000, 3).Generate()
	for e := 0; e < y.NNZ(); e++ {
		if v := y.Val(e); v < 0 || v > 2 {
			t.Fatalf("synthetic value %v outside U(0,1] (plus rare merges)", v)
		}
	}
}

func TestSkewedVersusUniformSliceHistograms(t *testing.T) {
	// The real-data presets must produce skewed per-slice histograms
	// (Table IV's premise) while Synthetic stays near-uniform. Compare
	// the share of nnz captured by the busiest 1% of mode-0 slices.
	topShare := func(k Kind) float64 {
		x := Preset(k, 40000, 5).Generate()
		hist := x.SliceNNZ(0)
		sorted := append([]int64(nil), hist...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
		top := len(sorted) / 100
		if top < 1 {
			top = 1
		}
		var sum, total int64
		for i, v := range sorted {
			total += v
			if i < top {
				sum += v
			}
		}
		return float64(sum) / float64(total)
	}
	clothing := topShare(Clothing)
	synthetic := topShare(Synthetic)
	if clothing < 3*synthetic {
		t.Fatalf("Clothing top-1%% share %.3f not clearly above Synthetic %.3f", clothing, synthetic)
	}
}

func TestSkewDrivesPartitionerGap(t *testing.T) {
	// End-to-end Table IV premise: on a skewed preset MTP balances
	// better than GTP; on Synthetic they are comparable.
	x := Preset(Book, 40000, 7).Generate()
	hist := x.SliceNNZ(0)
	g := partition.GTP(hist, 15).ImbalanceStdDev()
	m := partition.MTP(hist, 15).ImbalanceStdDev()
	if m >= g {
		t.Fatalf("Book: MTP imbalance %v not below GTP %v", m, g)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Preset(Clothing, 10000, 11).Generate()
	b := Preset(Clothing, 10000, 11).Generate()
	if a.NNZ() != b.NNZ() {
		t.Fatal("same seed produced different tensors")
	}
	for i := range a.Vals {
		if a.Vals[i] != b.Vals[i] || a.Coords[i*3] != b.Coords[i*3] {
			t.Fatal("same seed produced different entries")
		}
	}
	c := Preset(Clothing, 10000, 12).Generate()
	if a.NNZ() == c.NNZ() && a.Vals[0] == c.Vals[0] && a.Coords[0] == c.Coords[0] {
		t.Fatal("different seeds produced identical head")
	}
}

func TestDescribe(t *testing.T) {
	x := Preset(Synthetic, 3000, 13).Generate()
	st := Describe("Synthetic", x)
	if st.NNZ != x.NNZ() || len(st.Dims) != 3 || st.Name != "Synthetic" {
		t.Fatalf("stats %+v", st)
	}
}

func TestStreamSchedule(t *testing.T) {
	x := Preset(Netflix, 20000, 15).Generate()
	seq, err := Stream(x, PaperFractions)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Len() != 6 {
		t.Fatalf("stream has %d steps", seq.Len())
	}
	// Final snapshot is the whole tensor.
	last := seq.Snapshot(seq.Len() - 1)
	if last.NNZ() != x.NNZ() {
		t.Fatalf("final snapshot nnz %d != %d", last.NNZ(), x.NNZ())
	}
	// Snapshots grow monotonically and each step adds data.
	prev := seq.Snapshot(0)
	if prev.NNZ() == 0 {
		t.Fatal("first snapshot empty")
	}
	for i := 1; i < seq.Len(); i++ {
		cur := seq.Snapshot(i)
		if cur.NNZ() < prev.NNZ() {
			t.Fatalf("snapshot %d shrank", i)
		}
		prev = cur
	}
}

func TestStreamValidation(t *testing.T) {
	x := Preset(Synthetic, 2000, 17).Generate()
	for name, fracs := range map[string][]float64{
		"empty":           {},
		"zero":            {0, 1},
		"above one":       {0.5, 1.5},
		"decreasing":      {0.9, 0.8, 1},
		"not ending at 1": {0.5, 0.9},
	} {
		if _, err := Stream(x, fracs); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}

func TestPresetPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"bad kind": func() { Preset(Kind(99), 100, 1) },
		"bad nnz":  func() { Preset(Clothing, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func BenchmarkGenerateClothing(b *testing.B) {
	spec := Preset(Clothing, 100000, 19)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = spec.Generate()
	}
}

func TestCustomFourthOrderSpec(t *testing.T) {
	// Spec is order-generic even though the paper presets are 3rd order:
	// e.g. a ⟨user, product, location, time⟩ tensor.
	spec := Spec{
		Name: "custom4", Dims: []int{30, 25, 10, 12},
		Skew: []float64{1.0, 0.8, 0, 0.5},
		Seed: 7, NNZ: 3000, Rating: true,
	}
	x := spec.Generate()
	if x.Order() != 4 {
		t.Fatalf("order %d", x.Order())
	}
	if x.NNZ() < 2500 {
		t.Fatalf("nnz %d", x.NNZ())
	}
	// Skewed mode 0 concentrates more than uniform mode 2.
	share := func(mode int) float64 {
		hist := x.SliceNNZ(mode)
		sorted := append([]int64(nil), hist...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] > sorted[j] })
		var top, total int64
		for i, v := range sorted {
			total += v
			if i < len(sorted)/10+1 {
				top += v
			}
		}
		return float64(top) / float64(total)
	}
	if share(0) <= share(2) {
		t.Fatalf("mode 0 (skewed) share %.3f not above mode 2 (uniform) %.3f", share(0), share(2))
	}
}

func TestSpecValidation(t *testing.T) {
	bad := Spec{Name: "bad", Dims: []int{4, 4}, Skew: []float64{1}, NNZ: 10, Seed: 1}
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched skew accepted")
		}
	}()
	bad.Generate()
}

// generatedHash is FNV-1a over a tensor's dims, coordinates and value
// bits, in storage order.
func generatedHash(x *tensor.Tensor) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, d := range x.Dims {
		binary.LittleEndian.PutUint64(buf[:], uint64(d))
		h.Write(buf[:])
	}
	for _, c := range x.Coords {
		binary.LittleEndian.PutUint32(buf[:4], uint32(c))
		h.Write(buf[:4])
	}
	for _, v := range x.Vals {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// TestGenerateBytesPinned pins every byte Generate emits — each preset
// at a few seeds and sizes, and an order-4 custom spec — so a change to
// how coordinates are drawn or de-duplicated cannot move any dataset.
func TestGenerateBytesPinned(t *testing.T) {
	want := map[string]uint64{
		"Clothing/3000/1":       0x248de9b64d343259,
		"Clothing/3000/9":       0x94fd6eb00280f292,
		"Clothing/3000/12345":   0xfdad6e94fffcbf71,
		"Clothing/20000/1":      0xb541a32b63574493,
		"Clothing/20000/9":      0x9e2cfca8fd9a7774,
		"Clothing/20000/12345":  0xaa5f58de24a7f02c,
		"Book/3000/1":           0xa7be942e4adb02b3,
		"Book/3000/9":           0xd9b39c6f503df3b7,
		"Book/3000/12345":       0xb420f85f036d3643,
		"Book/20000/1":          0x1a18c663c438f0d0,
		"Book/20000/9":          0xdc6dddd874fd655a,
		"Book/20000/12345":      0x141dd8f2d3945da5,
		"Netflix/3000/1":        0x1a9193650cd76376,
		"Netflix/3000/9":        0xc0f165f737e42041,
		"Netflix/3000/12345":    0x3f788a129562e449,
		"Netflix/20000/1":       0x221c5d43033b6537,
		"Netflix/20000/9":       0x8890456c812b27ac,
		"Netflix/20000/12345":   0xdd6096e0405b31a6,
		"Synthetic/3000/1":      0x8f15a91b6ae1435e,
		"Synthetic/3000/9":      0xa75814f9abf8108b,
		"Synthetic/3000/12345":  0xcf4566e87244732b,
		"Synthetic/20000/1":     0x296c1ab09ce3b268,
		"Synthetic/20000/9":     0x64053514faf3ff77,
		"Synthetic/20000/12345": 0xad57fec5d2170185,
		"custom4":               0x99dfab8389f99ef7,
	}
	for _, k := range Kinds {
		for _, nnz := range []int{3000, 20000} {
			for _, seed := range []uint64{1, 9, 12345} {
				name := fmt.Sprintf("%v/%d/%d", k, nnz, seed)
				if got := generatedHash(Preset(k, nnz, seed).Generate()); got != want[name] {
					t.Errorf("%s: hash %#016x, want %#016x", name, got, want[name])
				}
			}
		}
	}
	custom := Spec{Name: "custom4", Dims: []int{30, 25, 10, 12}, Skew: []float64{1.0, 0.8, 0, 0.5}, Seed: 7, NNZ: 3000, Rating: true}
	if got := generatedHash(custom.Generate()); got != want["custom4"] {
		t.Errorf("custom4: hash %#016x, want %#016x", got, want["custom4"])
	}
}
