package dtd

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"dismastd/internal/mat"
	"dismastd/internal/tensor"
)

// ErrCorruptState marks a state file (or byte stream) that is damaged:
// truncated, bit-flipped, or not a state envelope at all. Callers with
// older copies — checkpoint chains most of all — can match it with
// errors.Is and fall back instead of aborting the run.
var ErrCorruptState = errors.New("dtd: corrupt state")

// State files carry the envelope binary tensor files carry
// (tensor.WriteEnvelope: magic "DMST", version, length, CRC-32) around a
// canonical payload: u32 order, then per mode u32 rows, u32 cols,
// rows*cols float64 bit patterns — all little-endian.
//
// Version 2 prefixes the version-1 payload with one u64: the stream's
// step counter, so a resumed stream keeps reporting snapshot indices
// where it left off (WriteStateSteps/ReadStateSteps). Every writer emits
// version 2 — WriteState with a zero counter — and the readers accept
// both, a version-1 file reading back with step count zero.
//
// The layout is canonical — equal states always produce equal files,
// whatever the writing process did before — which is what lets the
// crash-recovery tests compare resumed and uninterrupted runs with a
// plain byte comparison, and float64 bit patterns round-trip exactly.
const (
	stateMagic        = "DMST"
	stateVersionSteps = 2
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
// around the canonical payload, with a zero step counter.
func WriteState(w io.Writer, s *State) error { return WriteStateSteps(w, s, 0) }

// WriteStateSteps encodes a state together with the stream's step
// counter.
func WriteStateSteps(w io.Writer, s *State, steps uint64) error {
	if len(s.Factors) != len(s.Dims) {
		return fmt.Errorf("dtd: state has %d dims, %d factors", len(s.Dims), len(s.Factors))
	}
	n := 12
	for _, f := range s.Factors {
		n += 8 + 8*len(f.Data)
	}
	p := make([]byte, 0, n)
	p = binary.LittleEndian.AppendUint64(p, steps)
	p = binary.LittleEndian.AppendUint32(p, uint32(len(s.Factors)))
	for m, f := range s.Factors {
		if f == nil || f.Rows != s.Dims[m] || len(f.Data) != f.Rows*f.Cols {
			return fmt.Errorf("dtd: factor %d inconsistent with dims %v", m, s.Dims)
		}
		p = binary.LittleEndian.AppendUint32(p, uint32(f.Rows))
		p = binary.LittleEndian.AppendUint32(p, uint32(f.Cols))
		for _, v := range f.Data {
			p = binary.LittleEndian.AppendUint64(p, math.Float64bits(v))
		}
	}
	return tensor.WriteEnvelope(w, stateMagic, stateVersionSteps, p)
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
	version, payload, err := tensor.ReadEnvelope(r, stateMagic, stateVersionSteps, ErrCorruptState)
	if err != nil {
		return nil, 0, err
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
	if order <= 0 || len(payload) < 8*order {
		return nil, fmt.Errorf("%w: state of order %d in %d bytes", ErrCorruptState, order, len(payload))
	}
	s := &State{Dims: make([]int, order)}
	for m := 0; m < order; m++ {
		if len(payload) < 8 {
			return nil, fmt.Errorf("%w: factor %d header missing", ErrCorruptState, m)
		}
		rows := int(binary.LittleEndian.Uint32(payload))
		cols := int(binary.LittleEndian.Uint32(payload[4:]))
		payload = payload[8:]
		if cols <= 0 || rows > len(payload)/8/cols {
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
