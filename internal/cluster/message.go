// Package cluster implements the distributed runtime DisMASTD runs on:
// a fixed-size group of workers exchanging tagged messages through a
// pluggable Transport, with the collectives the paper's computation
// needs (broadcast, gather, all-reduce) built on top, and per-rank
// metrics (bytes, messages, work units) that feed both the
// communication-complexity checks (Theorem 4) and the simtime cost
// model.
//
// Two transports are provided: an in-process transport that delivers
// through shared memory (used by the experiment harness — the paper's
// cluster is simulated as goroutine workers), and a TCP transport that
// runs the same worker code across OS processes (cmd/worker,
// examples/multiprocess), each message one fixed-layout frame.
package cluster

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
)

// Message is one tagged point-to-point payload. Tags namespace the
// independent message streams of the algorithm (per-mode Grams, factor
// rows, loss terms) so receives match deterministically.
type Message struct {
	From    int
	Tag     string
	Payload []byte
}

// A Message crosses a process boundary as one little-endian frame,
//
//	u16 from · u16 tag length · u32 payload length · tag · payload
//
// whose 8-byte header is exactly what wireSize charges on top of tag and
// payload, so the byte counters report what the socket carries.
const frameHeader = 8

// maxFramePayload is the largest payload a frame may carry — far above
// any message the algorithms send (a whole-state broadcast of a
// million-row, rank-10, three-mode model is 240 MB). Readers check each
// header against their ceiling before allocating anything.
const maxFramePayload = 1 << 30

// wireSize is the size of a message's frame.
func wireSize(tag string, payload []byte) int64 {
	return frameHeader + int64(len(tag)) + int64(len(payload))
}

// checkFrame reports a message the frame layout cannot carry.
func checkFrame(m *Message) error {
	if m.From < 0 || m.From > math.MaxUint16 || len(m.Tag) > math.MaxUint16 || len(m.Payload) > maxFramePayload {
		return fmt.Errorf("cluster: message from %d with a %d-byte tag and a %d-byte payload does not fit a frame", m.From, len(m.Tag), len(m.Payload))
	}
	return nil
}

// frameWriter sends the frames of one connection: header and tag are
// staged in a reused buffer and go out with the payload in one vectored
// write, so nothing is copied and a warm writer allocates nothing.
type frameWriter struct {
	head []byte
	vec  [2][]byte
	bufs net.Buffers
}

// write sends m, which must pass checkFrame, as one frame.
func (fw *frameWriter) write(w io.Writer, m *Message) error {
	h := binary.LittleEndian.AppendUint16(fw.head[:0], uint16(m.From))
	h = binary.LittleEndian.AppendUint16(h, uint16(len(m.Tag)))
	h = binary.LittleEndian.AppendUint32(h, uint32(len(m.Payload)))
	fw.head = append(h, m.Tag...)
	fw.vec = [2][]byte{fw.head, m.Payload}
	fw.bufs = fw.vec[:]
	_, err := fw.bufs.WriteTo(w)
	fw.vec[1] = nil // the payload belongs to the sender again
	return err
}

// maxInternedTags bounds a connection's tag table: stream tags recur,
// but one-shot counter tags would grow it forever.
const maxInternedTags = 1024

// frameReader decodes the frames of one connection into class-sized
// buffers from the pool, which the receiver's PutBuf recycles, with tags
// interned, so a warm connection allocates nothing per message.
type frameReader struct {
	r     io.Reader
	pool  *bufPool
	limit int // payload ceiling
	head  [frameHeader]byte
	tag   []byte
	tags  map[string]string
}

func newFrameReader(r io.Reader, pool *bufPool, limit int) *frameReader {
	return &frameReader{r: r, pool: pool, limit: limit, tags: make(map[string]string)}
}

// read decodes the next frame, refusing a payload over the limit
// before anything is allocated.
func (fr *frameReader) read() (Message, error) {
	if _, err := io.ReadFull(fr.r, fr.head[:]); err != nil {
		return Message{}, err
	}
	from := int(binary.LittleEndian.Uint16(fr.head[0:]))
	tl := int(binary.LittleEndian.Uint16(fr.head[2:]))
	n := int64(binary.LittleEndian.Uint32(fr.head[4:]))
	if n > int64(fr.limit) {
		return Message{}, fmt.Errorf("cluster: frame payload of %d bytes over the %d-byte ceiling", n, fr.limit)
	}
	if cap(fr.tag) < tl {
		fr.tag = make([]byte, tl)
	}
	if _, err := io.ReadFull(fr.r, fr.tag[:tl]); err != nil {
		return Message{}, err
	}
	msg := Message{From: from, Tag: fr.intern(fr.tag[:tl])}
	if n > 0 {
		msg.Payload, _ = fr.pool.get(int(n))
		if _, err := io.ReadFull(fr.r, msg.Payload); err != nil {
			fr.pool.put(msg.Payload)
			return Message{}, err
		}
	}
	return msg, nil
}

// intern returns the table's copy of tag; the lookup keyed by
// string(tag) does not allocate.
func (fr *frameReader) intern(tag []byte) string {
	if s, ok := fr.tags[string(tag)]; ok {
		return s
	}
	if len(fr.tags) >= maxInternedTags {
		clear(fr.tags)
	}
	s := string(tag)
	fr.tags[s] = s
	return s
}

// EncodeFloat64s packs a float64 slice little-endian. It is the payload
// codec for Gram matrices, factor rows, and scalar reductions.
func EncodeFloat64s(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
	}
	return out
}

// PutFloat64s encodes vals little-endian into dst, which must be
// exactly 8*len(vals) bytes (typically a pooled buffer from
// Worker.GetBuf). It is the allocation-free form of EncodeFloat64s.
func PutFloat64s(dst []byte, vals []float64) {
	_ = dst[:8*len(vals)]
	for i, v := range vals {
		binary.LittleEndian.PutUint64(dst[i*8:], math.Float64bits(v))
	}
}

// CopyFloat64s decodes a payload written by PutFloat64s/EncodeFloat64s
// into dst without allocating; the payload must hold at least len(dst)
// values.
func CopyFloat64s(dst []float64, b []byte) {
	_ = b[:8*len(dst)]
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
}

// AddFloat64s accumulates a float64 payload into dst elementwise — the
// in-place reduction step of the collectives; the payload must hold at
// least len(dst) values.
func AddFloat64s(dst []float64, b []byte) {
	_ = b[:8*len(dst)]
	for i := range dst {
		dst[i] += math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
}

// DecodeFloat64s unpacks a payload written by EncodeFloat64s.
func DecodeFloat64s(b []byte) ([]float64, error) {
	if len(b)%8 != 0 {
		return nil, fmt.Errorf("cluster: float64 payload of %d bytes", len(b))
	}
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out, nil
}
