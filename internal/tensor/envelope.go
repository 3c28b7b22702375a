package tensor

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
)

// Every file this repository writes — binary tensors here, model states
// in package dtd — is one envelope around a fixed-layout payload, so a
// damaged file is detected as such rather than decoded into nonsense:
//
//	4-byte magic · u32 version · u64 payload length · u32 CRC-32 (IEEE)
//	of the payload · payload
//
// all little-endian.
const envelopeHeader = 20

const envelopeChunk = 64 << 10 // first buffer for a stream of unknown length

// WriteEnvelope writes payload behind an envelope header.
func WriteEnvelope(w io.Writer, magic string, version uint32, payload []byte) error {
	var hdr [envelopeHeader]byte
	copy(hdr[:4], magic)
	binary.LittleEndian.PutUint32(hdr[4:], version)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr[16:], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadEnvelope reads an envelope written under magic and returns its
// version and checked payload. Versions 1 to maxVersion are read; any
// other is an error of its own, since the file may be intact. Every
// other failure wraps corrupt.
func ReadEnvelope(r io.Reader, magic string, maxVersion uint32, corrupt error) (uint32, []byte, error) {
	return readEnvelope(r, nil, magic, maxVersion, corrupt)
}

// readEnvelope is ReadEnvelope after the header's first len(head) bytes.
func readEnvelope(r io.Reader, head []byte, magic string, maxVersion uint32, corrupt error) (uint32, []byte, error) {
	var hdr [envelopeHeader]byte
	if _, err := io.ReadFull(r, hdr[copy(hdr[:], head):]); err != nil {
		return 0, nil, fmt.Errorf("%w: truncated header: %v", corrupt, err)
	}
	le := binary.LittleEndian
	version := le.Uint32(hdr[4:])
	switch {
	case string(hdr[:4]) != magic:
		return 0, nil, fmt.Errorf("%w: bad magic %q", corrupt, hdr[:4])
	case version == 0 || version > maxVersion:
		return 0, nil, fmt.Errorf("%s format version %d, this build reads 1 to %d", magic, version, maxVersion)
	}
	payload, err := readPayload(r, le.Uint64(hdr[8:]))
	if err != nil {
		return 0, nil, fmt.Errorf("%w: truncated payload: %v", corrupt, err)
	}
	if got, want := crc32.ChecksumIEEE(payload), le.Uint32(hdr[16:]); got != want {
		return 0, nil, fmt.Errorf("%w: checksum %08x, header says %08x", corrupt, got, want)
	}
	return version, payload, nil
}

// readPayload reads the n bytes a header announced, allocating only as
// they arrive. A regular file or an in-memory reader can tell how much
// it holds, so it is checked against n and read into one buffer of
// exactly n bytes; any other stream fills a buffer that doubles up to
// n, so a lying header costs at most twice the bytes that came.
func readPayload(r io.Reader, n uint64) ([]byte, error) {
	if left, ok := remaining(r); ok {
		if n > uint64(left) {
			return nil, fmt.Errorf("header announces %d bytes, %d follow", n, left)
		}
		buf := make([]byte, n)
		_, err := io.ReadFull(r, buf)
		return buf, err
	}
	buf := make([]byte, 0, min(n, envelopeChunk))
	for {
		got, err := io.ReadFull(r, buf[len(buf):cap(buf)])
		if buf = buf[:len(buf)+got]; err != nil || uint64(len(buf)) == n {
			return buf, err
		}
		buf = slices.Grow(buf, int(min(n-uint64(len(buf)), uint64(len(buf)))))
	}
}

// remaining reports how many bytes r holds past its read position, when
// it can say so without reading.
func remaining(r io.Reader) (int64, bool) {
	if b, ok := r.(interface{ Len() int }); ok {
		return int64(b.Len()), true
	}
	if f, ok := r.(*os.File); ok {
		if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() {
			pos, err := f.Seek(0, io.SeekCurrent)
			return fi.Size() - pos, err == nil
		}
	}
	return 0, false
}
