package dtd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"hash/crc32"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"dismastd/internal/mat"
)

func testState(t testing.TB) *State {
	t.Helper()
	st := &State{Dims: []int{4, 3}}
	for _, d := range st.Dims {
		f := mat.New(d, 2)
		for i := range f.Data {
			f.Data[i] = float64(i) + 0.5
		}
		st.Factors = append(st.Factors, f)
	}
	return st
}

func encodeState(t *testing.T, st *State) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteState(&buf, st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestStateRoundTrip(t *testing.T) {
	st := testState(t)
	got, err := ReadState(bytes.NewReader(encodeState(t, st)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Dims) != 2 || got.Dims[0] != 4 || got.Dims[1] != 3 {
		t.Fatalf("round-tripped dims %v", got.Dims)
	}
	for m := range st.Factors {
		if d := mat.MaxAbsDiff(got.Factors[m], st.Factors[m]); d != 0 {
			t.Fatalf("mode %d differs by %g after round trip", m, d)
		}
	}
}

// TestStateCorruptionDetected: every way a checkpoint file can be
// damaged — truncated header, truncated payload, flipped payload bit,
// wrong magic — must surface as the typed ErrCorruptState, never as a
// successfully decoded wrong state or a generic decode error.
func TestStateCorruptionDetected(t *testing.T) {
	good := encodeState(t, testState(t))
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0x01
	badMagic := append([]byte(nil), good...)
	copy(badMagic, "NOPE")
	for name, data := range map[string][]byte{
		"empty":             nil,
		"truncated header":  good[:envelopeHeader-3],
		"truncated payload": good[:len(good)-5],
		"flipped bit":       flipped,
		"bad magic":         badMagic,
		"missing envelope":  good[envelopeHeader:],
	} {
		_, err := ReadState(bytes.NewReader(data))
		if !errors.Is(err, ErrCorruptState) {
			t.Fatalf("%s: error = %v, want ErrCorruptState", name, err)
		}
	}
}

// TestStateFutureVersionRejected: a higher format version is refused
// with a message naming both versions, but NOT as corruption — the file
// may be intact and readable by a newer build.
func TestStateFutureVersionRejected(t *testing.T) {
	data := encodeState(t, testState(t))
	binary.LittleEndian.PutUint32(data[4:], stateVersionSteps+1)
	_, err := ReadState(bytes.NewReader(data))
	if err == nil || errors.Is(err, ErrCorruptState) {
		t.Fatalf("future version: error = %v, want a non-corrupt version error", err)
	}
	if !strings.Contains(err.Error(), "version") {
		t.Fatalf("version error does not say so: %v", err)
	}
}

// TestStateStepsRoundTrip: the version-2 envelope carries the stream
// step counter through a round trip, and ReadState reads it too
// (discarding the counter).
func TestStateStepsRoundTrip(t *testing.T) {
	st := testState(t)
	var buf bytes.Buffer
	if err := WriteStateSteps(&buf, st, 42); err != nil {
		t.Fatal(err)
	}
	got, steps, err := ReadStateSteps(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if steps != 42 {
		t.Fatalf("steps = %d, want 42", steps)
	}
	for m := range st.Factors {
		if d := mat.MaxAbsDiff(got.Factors[m], st.Factors[m]); d != 0 {
			t.Fatalf("mode %d differs by %g after round trip", m, d)
		}
	}
	if alt, err := ReadState(bytes.NewReader(buf.Bytes())); err != nil || alt.Dims[0] != st.Dims[0] {
		t.Fatalf("ReadState on a v2 envelope: %v %v", alt, err)
	}
}

// v1State is a version-1 state file as builds before the step counter
// wrote it, laid out by hand: one 1x2 factor holding 0.5 and -2.
func v1State() []byte {
	payload := []byte{
		1, 0, 0, 0, // order
		1, 0, 0, 0, 2, 0, 0, 0, // rows, cols
		0, 0, 0, 0, 0, 0, 0xe0, 0x3f, // 0.5
		0, 0, 0, 0, 0, 0, 0, 0xc0, // -2
	}
	hdr := []byte("DMST")
	hdr = binary.LittleEndian.AppendUint32(hdr, 1)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(payload)))
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(payload))
	return append(hdr, payload...)
}

// TestStateStepsReadsV1: a version-1 checkpoint — written before the
// counter existed — reads back through ReadStateSteps with step count
// zero, so old checkpoint files stay loadable.
func TestStateStepsReadsV1(t *testing.T) {
	got, steps, err := ReadStateSteps(bytes.NewReader(v1State()))
	if err != nil {
		t.Fatal(err)
	}
	if steps != 0 {
		t.Fatalf("v1 envelope reports %d steps, want 0", steps)
	}
	if len(got.Dims) != 1 || got.Dims[0] != 1 || got.Factors[0].Cols != 2 ||
		got.Factors[0].Data[0] != 0.5 || got.Factors[0].Data[1] != -2 {
		t.Fatalf("v1 fixture read as %v %v", got.Dims, got.Factors[0])
	}
}

// TestWriteStateIsV2WithZeroSteps: there is one writer version.
// WriteState emits exactly WriteStateSteps' bytes at step zero, so
// equal states still produce equal files whatever the writer's
// streaming position.
func TestWriteStateIsV2WithZeroSteps(t *testing.T) {
	st := testState(t)
	data := encodeState(t, st)
	if v := binary.LittleEndian.Uint32(data[4:]); v != stateVersionSteps {
		t.Fatalf("WriteState emits version %d, want %d", v, stateVersionSteps)
	}
	var steps bytes.Buffer
	if err := WriteStateSteps(&steps, st, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, steps.Bytes()) {
		t.Fatal("WriteState and WriteStateSteps at step 0 differ")
	}
}

// envelopeHeader is the fixed header ahead of every state payload.
const envelopeHeader = 20

// hugeHeader is a 20-byte state file whose header announces 2⁴⁰
// payload bytes and carries none.
func hugeHeader() []byte {
	b := []byte("DMST")
	b = binary.LittleEndian.AppendUint32(b, stateVersionSteps)
	b = binary.LittleEndian.AppendUint64(b, 1<<40)
	return binary.LittleEndian.AppendUint32(b, 0)
}

// TestHugeStateHeaderIsCorrupt: a header that announces far more bytes
// than follow is corruption — from a file, an in-memory reader or a
// stream of unknown length — and costs no allocation of the announced
// size. The reads run in a child process, because a reader that
// believes the header dies of an unrecoverable out-of-memory error.
func TestHugeStateHeaderIsCorrupt(t *testing.T) {
	if flag.Arg(0) == "huge-state-header" {
		path := filepath.Join(t.TempDir(), "huge.state")
		if err := os.WriteFile(path, hugeHeader(), 0o644); err != nil {
			t.Fatal(err)
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		for name, r := range map[string]io.Reader{
			"file":   f,
			"bytes":  bytes.NewReader(hugeHeader()),
			"stream": struct{ io.Reader }{bytes.NewReader(hugeHeader())},
		} {
			if _, _, err := ReadStateSteps(r); !errors.Is(err, ErrCorruptState) {
				t.Errorf("%s: error = %v, want ErrCorruptState", name, err)
			}
		}
		return
	}
	out, err := exec.Command(os.Args[0], "-test.run=^TestHugeStateHeaderIsCorrupt$", "-test.v", "--", "huge-state-header").CombinedOutput()
	if err != nil {
		t.Fatalf("reading a 2^40-byte header: %v\n%s", err, out)
	}
}

// FuzzReadState: the state reader is total on arbitrary bytes, through
// both of its allocation paths. It never panics, never allocates much
// more than its input, agrees between an in-memory reader and a stream,
// and every state it accepts re-encodes to the input's bytes — a
// version-2 input exactly, a version-1 input as its payload.
func FuzzReadState(f *testing.F) {
	var v2 bytes.Buffer
	WriteStateSteps(&v2, testState(f), 7)
	for _, seed := range [][]byte{v2.Bytes(), v1State(), hugeHeader()} {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
		f.Add(seed[:envelopeHeader])
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var s *State
		var steps uint64
		var err error
		n := allocated(func() { s, steps, err = ReadStateSteps(bytes.NewReader(in)) })
		_, _, serr := ReadStateSteps(struct{ io.Reader }{bytes.NewReader(in)})
		if (err == nil) != (serr == nil) {
			t.Fatalf("in-memory read: %v; stream read: %v", err, serr)
		}
		// The payload copy, the decoded factors, and their headers.
		if ceiling := uint64(4*len(in) + 1<<20); n > ceiling {
			t.Fatalf("%d input bytes allocated %d", len(in), n)
		}
		if err != nil {
			return
		}
		var re bytes.Buffer
		if err := WriteStateSteps(&re, s, steps); err != nil {
			t.Fatal(err)
		}
		got, want := re.Bytes()[envelopeHeader:], in[envelopeHeader:envelopeHeader+binary.LittleEndian.Uint64(in[8:])]
		if binary.LittleEndian.Uint32(in[4:]) == 1 {
			got = got[8:]
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("accepted state re-encodes to a different payload:\n in  %x\n out %x", want, got)
		}
	})
}

// allocated reports the bytes the heap handed out while fn ran.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}
