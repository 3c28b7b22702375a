package dtd

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"dismastd/internal/mat"
)

// ErrCorruptState marks a state file (or byte stream) that is damaged:
// truncated, bit-flipped, or not a state envelope at all. Callers with
// older copies — checkpoint chains most of all — can match it with
// errors.Is and fall back instead of aborting the run.
var ErrCorruptState = errors.New("dtd: corrupt state")

// State files carry a fixed envelope ahead of a canonical payload so a
// damaged checkpoint is detected as such rather than decoding into
// nonsense:
//
//	4 bytes  magic "DMST"
//	4 bytes  format version, little-endian (1 or 2)
//	8 bytes  payload length, little-endian
//	4 bytes  CRC-32 (IEEE) of the payload, little-endian
//	N bytes  payload: u32 order, then per mode u32 rows, u32 cols,
//	         rows*cols float64 bit patterns — all little-endian
//
// Version 2 prefixes the version-1 payload with one u64: the stream's
// step counter, so a resumed stream keeps reporting snapshot indices
// where it left off (WriteStateSteps/ReadStateSteps). Both readers
// accept both versions — a version-1 file reads back with step count
// zero — but WriteState keeps emitting version-1 bytes: equal states
// must keep producing equal files regardless of how far the writer had
// streamed, which is what the crash-recovery byte comparisons check.
//
// The payload layout is deliberately not gob: gob numbers type
// descriptors from a process-global counter, so two processes with
// different encode histories (a worker that has pushed messages
// through its gob-based transport versus one that has not) serialize
// the same state to different bytes. The fixed layout is canonical —
// equal states always produce equal files — which is what lets the
// crash-recovery tests compare resumed and uninterrupted runs with a
// plain byte comparison, and float64 bit patterns round-trip exactly.
const (
	stateMagic        = "DMST"
	stateVersion      = 1
	stateVersionSteps = 2
	stateHdrLen       = 20
)

// EmptyState returns the degenerate previous state of an order-N
// stream before any data: zero-size modes and empty factors. A DTD (or
// DisMASTD) step from the empty state reduces exactly to static CP-ALS
// of the snapshot — the complement is the whole tensor and the
// old-region terms vanish — which is what Init and the DMS-MG baseline
// are, and how cmd/worker bootstraps a distributed decomposition with
// no prior factors.
func EmptyState(order, rank int) *State {
	if order <= 0 || rank <= 0 {
		panic(fmt.Sprintf("dtd: EmptyState(%d, %d)", order, rank))
	}
	st := &State{Dims: make([]int, order)}
	for i := 0; i < order; i++ {
		st.Factors = append(st.Factors, mat.New(0, rank))
	}
	return st
}

// WriteState encodes a state as a checksummed, versioned envelope
// around the canonical payload (format version 1 — no step counter).
func WriteState(w io.Writer, s *State) error {
	payload, err := encodeStatePayload(nil, s)
	if err != nil {
		return err
	}
	return writeStateEnvelope(w, stateVersion, payload)
}

// WriteStateSteps encodes a state together with the stream's step
// counter as a version-2 envelope.
func WriteStateSteps(w io.Writer, s *State, steps uint64) error {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], steps)
	payload, err := encodeStatePayload(b[:], s)
	if err != nil {
		return err
	}
	return writeStateEnvelope(w, stateVersionSteps, payload)
}

// encodeStatePayload appends the canonical factor payload to prefix.
func encodeStatePayload(prefix []byte, s *State) ([]byte, error) {
	if len(s.Factors) != len(s.Dims) {
		return nil, fmt.Errorf("dtd: state has %d dims, %d factors", len(s.Dims), len(s.Factors))
	}
	n := len(prefix) + 4
	for _, f := range s.Factors {
		n += 8 + 8*len(f.Data)
	}
	payload := make([]byte, 0, n)
	payload = append(payload, prefix...)
	var b [8]byte
	binary.LittleEndian.PutUint32(b[:4], uint32(len(s.Factors)))
	payload = append(payload, b[:4]...)
	for m, f := range s.Factors {
		if f == nil || f.Rows != s.Dims[m] || len(f.Data) != f.Rows*f.Cols {
			return nil, fmt.Errorf("dtd: factor %d inconsistent with dims %v", m, s.Dims)
		}
		binary.LittleEndian.PutUint32(b[:4], uint32(f.Rows))
		binary.LittleEndian.PutUint32(b[4:8], uint32(f.Cols))
		payload = append(payload, b[:8]...)
		for _, v := range f.Data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			payload = append(payload, b[:]...)
		}
	}
	return payload, nil
}

func writeStateEnvelope(w io.Writer, version uint32, payload []byte) error {
	hdr := make([]byte, stateHdrLen)
	copy(hdr, stateMagic)
	binary.LittleEndian.PutUint32(hdr[4:], version)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[16:], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadState decodes a state written by WriteState (or
// WriteStateSteps, discarding the step counter), verifying the
// envelope — magic, version, length, checksum — before trusting the
// payload. Damage of any kind comes back wrapping ErrCorruptState; a
// version from a future format is its own error, since the file may be
// perfectly intact.
func ReadState(r io.Reader) (*State, error) {
	s, _, err := ReadStateSteps(r)
	return s, err
}

// ReadStateSteps decodes a state envelope of either version and
// returns the stream step counter it carries — zero for a version-1
// file, which predates the counter.
func ReadStateSteps(r io.Reader) (*State, uint64, error) {
	hdr := make([]byte, stateHdrLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, 0, fmt.Errorf("%w: truncated header: %v", ErrCorruptState, err)
	}
	if string(hdr[:4]) != stateMagic {
		return nil, 0, fmt.Errorf("%w: bad magic %q", ErrCorruptState, hdr[:4])
	}
	version := binary.LittleEndian.Uint32(hdr[4:])
	if version != stateVersion && version != stateVersionSteps {
		return nil, 0, fmt.Errorf("dtd: state format version %d, this build reads %d and %d", version, stateVersion, stateVersionSteps)
	}
	n := binary.LittleEndian.Uint64(hdr[8:])
	want := binary.LittleEndian.Uint32(hdr[16:])
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, 0, fmt.Errorf("%w: truncated payload: %v", ErrCorruptState, err)
	}
	if got := crc32.ChecksumIEEE(payload); got != want {
		return nil, 0, fmt.Errorf("%w: checksum %08x, header says %08x", ErrCorruptState, got, want)
	}
	var steps uint64
	if version == stateVersionSteps {
		if len(payload) < 8 {
			return nil, 0, fmt.Errorf("%w: step counter missing from %d-byte payload", ErrCorruptState, len(payload))
		}
		steps = binary.LittleEndian.Uint64(payload)
		payload = payload[8:]
	}
	s, err := decodeStatePayload(payload)
	if err != nil {
		return nil, 0, err
	}
	return s, steps, nil
}

// decodeStatePayload decodes the canonical factor payload. The
// envelope checksum already passed, so structural damage here means
// the writer was broken, not the storage — still corrupt from the
// caller's view.
func decodeStatePayload(payload []byte) (*State, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("%w: payload of %d bytes", ErrCorruptState, len(payload))
	}
	order := int(binary.LittleEndian.Uint32(payload))
	payload = payload[4:]
	if order <= 0 {
		return nil, fmt.Errorf("%w: state of order %d", ErrCorruptState, order)
	}
	s := &State{Dims: make([]int, order)}
	for m := 0; m < order; m++ {
		if len(payload) < 8 {
			return nil, fmt.Errorf("%w: factor %d header missing", ErrCorruptState, m)
		}
		rows := int(binary.LittleEndian.Uint32(payload))
		cols := int(binary.LittleEndian.Uint32(payload[4:]))
		payload = payload[8:]
		if rows < 0 || cols <= 0 || len(payload) < 8*rows*cols {
			return nil, fmt.Errorf("%w: factor %d of %dx%d in %d bytes", ErrCorruptState, m, rows, cols, len(payload))
		}
		f := mat.New(rows, cols)
		for i := range f.Data {
			f.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[8*i:]))
		}
		payload = payload[8*rows*cols:]
		s.Dims[m] = rows
		s.Factors = append(s.Factors, f)
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrCorruptState, len(payload))
	}
	return s, nil
}
