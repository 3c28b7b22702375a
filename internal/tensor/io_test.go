package tensor

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
)

func binaryBytes(t testing.TB, x *Tensor) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := x.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestBinaryRoundtrip(t *testing.T) {
	x := randomTensor([]int{20, 30, 10}, 500, 11)
	y, err := Read(bytes.NewReader(binaryBytes(t, x)))
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(x, y) {
		t.Fatal("binary roundtrip changed tensor")
	}
}

// TestBinaryRejectsGarbage: garbage, damage, and a file in the gob
// layout older builds wrote are all refused; the last one with an error
// that says how to get a readable file.
func TestBinaryRejectsGarbage(t *testing.T) {
	good := binaryBytes(t, randomTensor([]int{4, 5}, 12, 3))
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 1
	unsorted := &Tensor{Dims: []int{3, 3}, Coords: []int32{2, 2, 0, 1}, Vals: []float64{1, 2}}
	outOfRange := &Tensor{Dims: []int{3, 3}, Coords: []int32{0, 3}, Vals: []float64{1}}
	for name, in := range map[string][]byte{
		"garbage":      []byte("not a tensor stream"),
		"truncated":    good[:len(good)-3],
		"flipped bit":  flipped,
		"unsorted":     binaryBytes(t, unsorted),
		"out of range": binaryBytes(t, outOfRange),
	} {
		if _, err := Read(bytes.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		} else if name != "garbage" && !errors.Is(err, errCorrupt) {
			t.Errorf("%s: error %v is not corruption", name, err)
		}
	}
	// The first bytes encoding/gob wrote for a Tensor.
	gob := "3\x7f\x03\x01\x01\x06Tensor\x01\xff\x80\x00\x01\x03\x01\x04Dims\x01\xff\x82\x00\x01\x06Coords\x01\xff\x84\x00"
	if _, err := Read(strings.NewReader(gob)); err == nil || !strings.Contains(err.Error(), "datagen") {
		t.Fatalf("gob tensor file: error = %v, want one naming datagen", err)
	}
}

// TestReadTellsFormatsByContent: Read needs no file name — the same
// tensor written either way reads back the same.
func TestReadTellsFormatsByContent(t *testing.T) {
	x := randomTensor([]int{7, 9, 4}, 60, 13)
	var txt bytes.Buffer
	if err := x.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	for name, in := range map[string][]byte{"text": txt.Bytes(), "binary": binaryBytes(t, x)} {
		y, err := Read(bytes.NewReader(in))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !Equal(x, y) {
			t.Fatalf("%s: read a different tensor", name)
		}
	}
	if _, err := Read(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestTextRoundtrip(t *testing.T) {
	x := randomTensor([]int{7, 9, 4}, 60, 13)
	var buf bytes.Buffer
	if err := x.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	y, err := readText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(x, y) {
		t.Fatal("text roundtrip changed tensor")
	}
}

func TestTextFormat(t *testing.T) {
	b := NewBuilder([]int{2, 3})
	b.Append([]int{1, 2}, 1.5)
	var buf bytes.Buffer
	if err := b.Build().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "dims\t2\t3\n1\t2\t1.5\n"
	if got != want {
		t.Fatalf("text output %q, want %q", got, want)
	}
}

func TestTextErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"bad header":   "shape\t2\t2\n",
		"bad dim":      "dims\t2\tx\n",
		"short line":   "dims\t2\t2\n1\t1\n",
		"bad index":    "dims\t2\t2\na\t1\t1\n",
		"bad value":    "dims\t2\t2\n1\t1\tz\n",
		"out of range": "dims\t2\t2\n5\t1\t1\n",
	}
	for name, in := range cases {
		if _, err := readText(strings.NewReader(in)); err == nil {
			t.Fatalf("%s: accepted %q", name, in)
		}
	}
}

// sameBits is Equal with values compared bit for bit, so NaNs match.
func sameBits(a, b *Tensor) bool {
	if len(a.Dims) != len(b.Dims) || len(a.Coords) != len(b.Coords) || len(a.Vals) != len(b.Vals) {
		return false
	}
	for m := range a.Dims {
		if a.Dims[m] != b.Dims[m] {
			return false
		}
	}
	for i := range a.Coords {
		if a.Coords[i] != b.Coords[i] {
			return false
		}
	}
	for i := range a.Vals {
		if math.Float64bits(a.Vals[i]) != math.Float64bits(b.Vals[i]) {
			return false
		}
	}
	return true
}

// FuzzReadTensor: Read is total on arbitrary bytes in both formats. It
// never panics, never allocates much more than its input, and round-
// trips what it accepts: a binary tensor re-encodes to the bytes it
// was read from, a text one reads back equal after WriteText.
func FuzzReadTensor(f *testing.F) {
	bin := binaryBytes(f, randomTensor([]int{5, 4, 3}, 20, 1))
	var txt bytes.Buffer
	randomTensor([]int{3, 3}, 4, 2).WriteText(&txt)
	for _, seed := range [][]byte{bin, txt.Bytes()} {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
	}
	f.Add(bin[:envelopeHeader])
	f.Add([]byte("dims\t2\n1\tNaN\n"))
	f.Fuzz(func(t *testing.T, in []byte) {
		var x *Tensor
		var err error
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		x, err = Read(bytes.NewReader(in))
		runtime.ReadMemStats(&after)
		// Binary: the payload, then coordinates and values as large as
		// it. Text: the scanner's buffer and the builder's entries.
		if n, ceiling := after.TotalAlloc-before.TotalAlloc, uint64(16*len(in)+1<<20); n > ceiling {
			t.Fatalf("%d input bytes allocated %d", len(in), n)
		}
		if err != nil {
			return
		}
		if bytes.HasPrefix(in, []byte(tensorMagic)) {
			re := binaryBytes(t, x)
			if !bytes.Equal(re, in[:len(re)]) {
				t.Fatalf("accepted binary tensor re-encodes differently:\n in  %x\n out %x", in[:len(re)], re)
			}
			return
		}
		var buf bytes.Buffer
		if err := x.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		y, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-reading written text: %v", err)
		}
		if !sameBits(x, y) {
			t.Fatal("text round trip changed the tensor")
		}
	})
}
