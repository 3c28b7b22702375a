package cluster

import (
	"bytes"
	"math"
	"testing"
)

// The float64 payload codec used everywhere must be total on arbitrary
// input: any byte string either decodes cleanly or returns an error,
// never panics, and every successful decode re-encodes to the identical
// bytes (the format carries no redundancy, so decode is a bijection on
// valid input).

func FuzzDecodeFloat64s(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeFloat64s([]float64{0, 1, -1, math.Pi}))
	f.Add(EncodeFloat64s([]float64{math.Inf(1), math.NaN()}))
	f.Add([]byte{1, 2, 3})  // not a multiple of 8
	f.Add(make([]byte, 15)) // one value plus a truncated tail
	f.Fuzz(func(t *testing.T, b []byte) {
		vals, err := DecodeFloat64s(b)
		if len(b)%8 != 0 {
			if err == nil {
				t.Fatalf("decoded %d bytes, want error", len(b))
			}
			return
		}
		if err != nil {
			t.Fatalf("valid length %d rejected: %v", len(b), err)
		}
		if len(vals) != len(b)/8 {
			t.Fatalf("got %d values from %d bytes", len(vals), len(b))
		}
		// Round-trip at the bit level (NaN payloads included).
		re := EncodeFloat64s(vals)
		if !bytes.Equal(re, b) {
			t.Fatalf("re-encode mismatch:\n in  %x\n out %x", b, re)
		}
		// And the allocation-free pair agrees with the allocating one.
		dst := make([]float64, len(vals))
		CopyFloat64s(dst, b)
		for i := range dst {
			if math.Float64bits(dst[i]) != math.Float64bits(vals[i]) {
				t.Fatalf("CopyFloat64s[%d] = %x, DecodeFloat64s = %x", i, math.Float64bits(dst[i]), math.Float64bits(vals[i]))
			}
		}
	})
}
