package tensor

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Binary tensor files are an envelope (envelope.go) around a fixed
// struct-of-arrays payload, little-endian:
//
//	u32 order N · N × u32 dims · u64 nnz · nnz·N × i32 coords · nnz × f64 values
//
// with the coordinates entry-major, as Tensor.Coords holds them.
const (
	tensorMagic   = "DMTN"
	tensorVersion = 1
)

var errCorrupt = errors.New("tensor: corrupt binary tensor")

// WriteBinary encodes the tensor in the binary format.
func (t *Tensor) WriteBinary(w io.Writer) error {
	p := make([]byte, 0, 12+4*len(t.Dims)+4*len(t.Coords)+8*len(t.Vals))
	p = binary.LittleEndian.AppendUint32(p, uint32(len(t.Dims)))
	for m, d := range t.Dims {
		if d > math.MaxUint32 {
			return fmt.Errorf("tensor: mode %d of size %d does not fit the binary format", m, d)
		}
		p = binary.LittleEndian.AppendUint32(p, uint32(d))
	}
	p = binary.LittleEndian.AppendUint64(p, uint64(len(t.Vals)))
	for _, c := range t.Coords {
		p = binary.LittleEndian.AppendUint32(p, uint32(c))
	}
	for _, v := range t.Vals {
		p = binary.LittleEndian.AppendUint64(p, math.Float64bits(v))
	}
	return WriteEnvelope(w, tensorMagic, tensorVersion, p)
}

// Read parses a tensor in either format, told apart by its first bytes
// rather than a file name: the binary magic or the text header. Anything
// else — a binary file from a build that wrote another layout among
// them — is refused.
func Read(r io.Reader) (*Tensor, error) {
	var head [len(tensorMagic)]byte
	n, err := io.ReadFull(r, head[:])
	if string(head[:n]) == tensorMagic {
		_, p, err := readEnvelope(r, head[:], tensorMagic, tensorVersion, errCorrupt)
		if err != nil {
			return nil, err
		}
		return decodeBinary(p)
	}
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, err
	}
	if !strings.HasPrefix("dims", string(head[:n])) {
		return nil, errors.New("tensor: neither the binary nor the text format (binary tensors written by older builds must be regenerated with datagen)")
	}
	return readText(io.MultiReader(bytes.NewReader(head[:n]), r))
}

// decodeBinary decodes a binary payload, holding it to what a Tensor
// promises: coordinates in range, entries strictly increasing (sorted,
// no duplicates).
func decodeBinary(p []byte) (*Tensor, error) {
	le := binary.LittleEndian
	if len(p) < 4 {
		return nil, fmt.Errorf("%w: payload of %d bytes", errCorrupt, len(p))
	}
	n := int(le.Uint32(p))
	if p = p[4:]; n == 0 || len(p) < 4*n+8 {
		return nil, fmt.Errorf("%w: order %d in %d bytes", errCorrupt, n, len(p))
	}
	t := &Tensor{Dims: make([]int, n)}
	for m := range t.Dims {
		t.Dims[m] = int(le.Uint32(p[4*m:]))
	}
	nnz, entry := le.Uint64(p[4*n:]), uint64(4*n+8)
	if p = p[4*n+8:]; nnz > uint64(len(p))/entry || nnz*entry != uint64(len(p)) {
		return nil, fmt.Errorf("%w: %d entries of order %d in %d bytes", errCorrupt, nnz, n, len(p))
	}
	if nnz > 0 {
		t.Coords, t.Vals = make([]int32, int(nnz)*n), make([]float64, nnz)
	}
	for i := range t.Coords {
		t.Coords[i] = int32(le.Uint32(p[4*i:]))
		if t.Coords[i] < 0 || int(t.Coords[i]) >= t.Dims[i%n] {
			return nil, fmt.Errorf("%w: coordinate %d out of range in mode %d", errCorrupt, t.Coords[i], i%n)
		}
	}
	for e := 1; e < len(t.Vals); e++ {
		if slices.Compare(t.Coords[(e-1)*n:e*n], t.Coords[e*n:(e+1)*n]) >= 0 {
			return nil, fmt.Errorf("%w: entry %d out of order", errCorrupt, e)
		}
	}
	p = p[4*len(t.Coords):]
	for e := range t.Vals {
		t.Vals[e] = math.Float64frombits(le.Uint64(p[8*e:]))
	}
	return t, nil
}

// WriteText emits a human-readable TSV representation: a header line
// "dims\td1\t...\tdN" followed by one "i1\t...\tiN\tvalue" line per
// non-zero entry. The format round-trips through readText.
func (t *Tensor) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprint(bw, "dims")
	for _, d := range t.Dims {
		fmt.Fprintf(bw, "\t%d", d)
	}
	fmt.Fprintln(bw)
	n := t.Order()
	for e := 0; e < t.NNZ(); e++ {
		for m := 0; m < n; m++ {
			fmt.Fprintf(bw, "%d\t", t.Coords[e*n+m])
		}
		fmt.Fprintf(bw, "%g\n", t.Vals[e])
	}
	return bw.Flush()
}

// readText parses the TSV format written by WriteText.
func readText(r io.Reader) (*Tensor, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	if !sc.Scan() {
		return nil, fmt.Errorf("tensor: empty text input")
	}
	header := strings.Split(strings.TrimRight(sc.Text(), "\n"), "\t")
	if len(header) < 2 || header[0] != "dims" {
		return nil, fmt.Errorf("tensor: malformed header %q", sc.Text())
	}
	dims := make([]int, len(header)-1)
	for i, f := range header[1:] {
		d, err := strconv.Atoi(f)
		if err == nil && (d < 0 || d > math.MaxInt32) {
			err = errors.New("outside [0, 2^31)")
		}
		if err != nil {
			return nil, fmt.Errorf("tensor: bad dim %q: %w", f, err)
		}
		dims[i] = d
	}
	b := NewBuilder(dims)
	idx := make([]int, len(dims))
	line := 1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Split(text, "\t")
		if len(fields) != len(dims)+1 {
			return nil, fmt.Errorf("tensor: line %d has %d fields, want %d", line, len(fields), len(dims)+1)
		}
		for m := range dims {
			v, err := strconv.Atoi(fields[m])
			if err != nil {
				return nil, fmt.Errorf("tensor: line %d index %q: %w", line, fields[m], err)
			}
			if v < 0 || v >= dims[m] {
				return nil, fmt.Errorf("tensor: line %d coordinate %d out of range [0, %d) in mode %d", line, v, dims[m], m)
			}
			idx[m] = v
		}
		val, err := strconv.ParseFloat(fields[len(dims)], 64)
		if err != nil {
			return nil, fmt.Errorf("tensor: line %d value %q: %w", line, fields[len(dims)], err)
		}
		b.Append(idx, val)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("tensor: scan: %w", err)
	}
	return b.Build(), nil
}
