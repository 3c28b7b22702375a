package cluster

import (
	"bytes"
	"encoding/binary"
	"math"
	"runtime"
	"testing"
)

// allocated reports the bytes the heap handed out while fn ran.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

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

func frameBytes(msgs ...Message) []byte {
	var b bytes.Buffer
	var fw frameWriter
	for i := range msgs {
		fw.write(&b, &msgs[i])
	}
	return b.Bytes()
}

func TestWireSizeIsFrameLength(t *testing.T) {
	for _, m := range []Message{
		{},
		{From: 7, Tag: "rows/2", Payload: make([]byte, 40)},
		{From: math.MaxUint16, Tag: heartbeatTag},
		{From: 1, Tag: "e3|v2|reduce/bc", Payload: EncodeFloat64s([]float64{1, 2, 3})},
	} {
		if got, want := int64(len(frameBytes(m))), wireSize(m.Tag, m.Payload); got != want {
			t.Errorf("frame of %+v is %d bytes, wireSize charges %d", m, got, want)
		}
	}
}

func TestCheckFrameRefusesWhatTheHeaderCannotSay(t *testing.T) {
	for _, m := range []Message{
		{From: math.MaxUint16 + 1},
		{From: -1},
		{Tag: string(make([]byte, math.MaxUint16+1))},
	} {
		if checkFrame(&m) == nil {
			t.Errorf("from %d with a %d-byte tag accepted", m.From, len(m.Tag))
		}
	}
	if m := (Message{From: math.MaxUint16, Tag: string(make([]byte, math.MaxUint16))}); checkFrame(&m) != nil {
		t.Error("largest from and tag refused")
	}
}

// TestFrameReaderRefusesOversizeHeader: a header claiming more than the
// ceiling is an error before any payload is allocated.
func TestFrameReaderRefusesOversizeHeader(t *testing.T) {
	hdr := make([]byte, frameHeader)
	binary.LittleEndian.PutUint32(hdr[4:], maxFramePayload+1)
	fr := newFrameReader(bytes.NewReader(hdr), newBufPool(), maxFramePayload)
	var err error
	if n := allocated(func() { _, err = fr.read() }); n > 1<<20 {
		t.Fatalf("refusing an oversize header allocated %d bytes", n)
	}
	if err == nil {
		t.Fatal("oversize frame accepted")
	}
}

// FuzzReadFrame: the frame reader is total on arbitrary bytes. It never
// panics, never allocates beyond what the input and its payload
// ceiling allow, and every frame it accepts re-encodes to exactly the
// bytes it consumed. Join replies among them round-trip through their
// own codec.
func FuzzReadFrame(f *testing.F) {
	seeds := [][]byte{
		frameBytes(Message{From: 3, Tag: "rows/0", Payload: EncodeFloat64s([]float64{1, math.Pi})}),
		frameBytes(Message{From: 1, Tag: heartbeatTag}, Message{From: 1, Tag: revokeTag, Payload: []byte{2, 0, 0, 0}}),
		frameBytes(Message{Tag: rendezvousTag, Payload: []byte("127.0.0.1:9")}),
		frameBytes(Message{Tag: rendezvousTag, Payload: encodeJoinReply(1, []string{"127.0.0.1:9", "127.0.0.1:10"})}),
	}
	for _, s := range seeds {
		f.Add(s)
		f.Add(s[:len(s)/2])
		f.Add(s[:frameHeader-1])
	}
	f.Add([]byte("this is not a frame"))
	f.Fuzz(func(t *testing.T, in []byte) {
		const limit = 1 << 16
		fr := newFrameReader(bytes.NewReader(in), newBufPool(), limit)
		var msgs []Message
		n := allocated(func() {
			for {
				msg, err := fr.read()
				if err != nil {
					return
				}
				msgs = append(msgs, msg)
			}
		})
		// Payloads round up to a size class; a truncated frame may cost
		// one ceiling-sized buffer; the tag scratch is at most 64 KiB.
		if ceiling := uint64(4*len(in) + 2*limit + 2*math.MaxUint16 + 1<<20); n > ceiling {
			t.Fatalf("%d input bytes allocated %d", len(in), n)
		}
		re := frameBytes(msgs...)
		if !bytes.Equal(re, in[:len(re)]) {
			t.Fatalf("re-encoded frames differ:\n in  %x\n out %x", in[:len(re)], re)
		}
		for _, m := range msgs {
			if m.Tag != rendezvousTag {
				continue
			}
			if rank, addrs, err := decodeJoinReply(m.Payload); err == nil {
				if re := encodeJoinReply(rank, addrs); !bytes.Equal(re, m.Payload) {
					t.Fatalf("join reply re-encodes to %x, was %x", re, m.Payload)
				}
			}
		}
	})
}

// FuzzMembership: the membership decoders — view, rank list, view
// proposal, adopt payload — are total, allocate in proportion to their
// input, and round-trip what they accept; an accepted view's members are
// strictly increasing.
func FuzzMembership(f *testing.F) {
	v := View{Epoch: 3, Members: []int{0, 2, 5}}
	f.Add(encodeView(nil, v))
	f.Add(encodeView(nil, View{Epoch: 3, Members: []int{5, 0, 2}}))
	f.Add(encodeAdopt(v, 7))
	f.Add(encodeProposal(ViewChange{Dead: []int{1}, Join: []int{4, 6}}, 2))
	f.Add(encodeProposal(ViewChange{}, -1))
	f.Add(encodeRankList(nil, nil))
	f.Add(encodeAdopt(v, -1)[:13])
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, in []byte) {
		n := allocated(func() {
			if v, rest, err := decodeView(in); err == nil {
				if re := encodeView(nil, v); !bytes.Equal(re, in[:len(in)-len(rest)]) {
					t.Fatalf("view re-encodes to %x, was %x", re, in[:len(in)-len(rest)])
				}
				for i := 1; i < len(v.Members); i++ {
					if v.Members[i] <= v.Members[i-1] {
						t.Fatalf("accepted view members %v", v.Members)
					}
				}
			}
			if list, rest, err := decodeRankList(in); err == nil {
				if re := encodeRankList(nil, list); !bytes.Equal(re, in[:len(in)-len(rest)]) {
					t.Fatalf("rank list re-encodes to %x, was %x", re, in[:len(in)-len(rest)])
				}
			}
			if vc, step, err := decodeProposal(in); err == nil {
				if re := encodeProposal(vc, step); !bytes.Equal(re, in) {
					t.Fatalf("proposal re-encodes to %x, was %x", re, in)
				}
			}
			if v, step, err := decodeAdopt(in); err == nil {
				if re := encodeAdopt(v, step); !bytes.Equal(re, in) {
					t.Fatalf("adopt payload re-encodes to %x, was %x", re, in)
				}
			}
		})
		// Members decode to ints (8 bytes per 4 of input); each
		// re-encoding is as long as the input.
		if ceiling := uint64(16*len(in) + 1<<20); n > ceiling {
			t.Fatalf("%d input bytes allocated %d", len(in), n)
		}
	})
}
