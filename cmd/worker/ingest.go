package main

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"

	"dismastd"
)

// maxIngestBody is the most bytes one /ingest body may hold; a longer
// one is refused as too large (413).
const maxIngestBody = 64 << 20

// maxNesting is encoding/json's nesting limit: a body whose arrays and
// objects nest deeper is a syntax error there, so it is one here.
const maxNesting = 10000

// readBody reads a whole request body of at most maxIngestBody bytes
// into one buffer, sized from Content-Length when the client sent it.
// A longer body fails with *http.MaxBytesError.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	size := int64(bytes.MinRead)
	if r.ContentLength > 0 {
		size += min(r.ContentLength, maxIngestBody)
	}
	buf := bytes.NewBuffer(make([]byte, 0, size))
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxIngestBody))
	return buf.Bytes(), err
}

// decodeEvents decodes an /ingest body, a JSON array of {coords, value}
// objects, without reflection. It accepts and rejects exactly the
// bodies json.NewDecoder(body).Decode(&[]eventJSON) does and yields the
// same events (FuzzIngestDecode holds it to that), which means it:
//
//   - matches the keys "coords" and "value" case-insensitively under
//     Unicode simple folding, after unescaping, and skips any other key
//     whatever valid value it holds;
//   - lets the last of duplicate keys win — and a later "coords" array
//     decodes into the earlier one's storage, so a null element keeps
//     the value the earlier array left at its index;
//   - reads null as "leave unchanged": a null event is the zero event, a
//     null coords is empty, a null value or coordinate is left as it was;
//   - refuses a coordinate with a fraction or exponent, or outside int,
//     and a value outside float64;
//   - reads no byte after the array's closing bracket, and takes a
//     top-level null as no events.
//
// It allocates per body, not per event: one event slice and one flat
// coordinate buffer every event's Coords is carved from. Both are sized
// before the parse: events by the body's '{' bytes, coordinates by its
// ',' and '[' bytes — enough for any body without null events — capped
// at maxHint entries. A body past that grows them by append, and each
// event keeps the storage it was carved from.
func decodeEvents(body []byte) ([]dismastd.Event, error) {
	hint := func(n int) int { return min(n, maxHint) }
	d := ingestDecoder{
		data:   body,
		events: make([]dismastd.Event, 0, hint(bytes.Count(body, []byte("{")))),
		coords: make([]int, 0, hint(bytes.Count(body, []byte(","))+bytes.Count(body, []byte("[")))),
	}
	if err := d.run(); err != nil {
		return nil, err
	}
	return d.events, nil
}

// maxHint caps decodeEvents' capacity hints, so a body of braces or
// commas claims at most 8 MiB of coordinates and 32 MiB of events
// before it fails to parse.
const maxHint = 1 << 20

// ingestDecoder is the state of one decodeEvents call.
type ingestDecoder struct {
	data  []byte
	pos   int
	depth int
	key   []byte // the current key, unescaped (escaped keys only)

	events []dismastd.Event
	coords []int // the current event's coordinates are coords[off:] while it decodes
}

var errTruncated = errors.New("unexpected end of body")

func (d *ingestDecoder) syntaxError(what string) error {
	if d.pos >= len(d.data) {
		return errTruncated
	}
	return fmt.Errorf("invalid character %q %s at byte %d", d.data[d.pos], what, d.pos)
}

// skipSpace, digits and skipString scan with locals: the compiler
// keeps those in registers, where it reloads d's fields every byte.
func (d *ingestDecoder) skipSpace() {
	data, i := d.data, d.pos
	for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i++
	}
	d.pos = i
}

// peek returns the next byte after whitespace, or 0 at the end.
func (d *ingestDecoder) peek() byte {
	d.skipSpace()
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

// run decodes the body: the bytes after the array's closing bracket are
// not read.
func (d *ingestDecoder) run() error {
	switch d.peek() {
	case '[':
		return d.list(']', func(int) error { return d.event() })
	case 'n':
		return d.literal("null")
	}
	return d.syntaxError("where the body should begin its array")
}

// object consumes an object at the next byte, calling member with each
// key, unescaped, and the decoder at its value.
func (d *ingestDecoder) object(member func(key []byte) error) error {
	return d.list('}', func(int) error {
		if d.peek() != '"' {
			return d.syntaxError("where a key should begin")
		}
		key, err := d.keyString()
		if err != nil {
			return err
		}
		if d.peek() != ':' {
			return d.syntaxError("after a key")
		}
		d.pos++
		return member(key)
	})
}

// list consumes an array or object at the next byte — '[' or '{', then
// comma-separated items up to end, one nesting level deeper — calling
// item with each item's index and the decoder at the item.
func (d *ingestDecoder) list(end byte, item func(i int) error) error {
	if d.depth++; d.depth > maxNesting {
		return fmt.Errorf("nesting deeper than %d at byte %d", maxNesting, d.pos)
	}
	d.pos++
	for i := 0; i > 0 || d.peek() != end; i++ {
		if err := item(i); err != nil {
			return err
		}
		if c := d.peek(); c == end {
			break
		} else if c != ',' {
			return d.syntaxError("after an item")
		}
		d.pos++ // the comma; an item must follow it
	}
	d.pos++
	d.depth--
	return nil
}

// event decodes one element of the outer array. Its coordinates are
// decoded straight into d.coords, from off on, and carved from there.
func (d *ingestDecoder) event() error {
	switch d.peek() {
	case 'n':
		d.events = append(d.events, dismastd.Event{})
		return d.literal("null")
	case '{':
	default:
		return d.syntaxError("where an event object should begin")
	}
	off := len(d.coords)
	n, value := 0, 0.0
	err := d.object(func(key []byte) (err error) {
		switch {
		case string(key) == "coords" || bytes.EqualFold(key, []byte("coords")):
			n, err = d.coordsValue(off)
		case string(key) == "value" || bytes.EqualFold(key, []byte("value")):
			err = d.floatValue(&value)
		default:
			err = d.skipValue()
		}
		return err
	})
	if err != nil {
		return err
	}
	var coords []int
	if n > 0 {
		d.coords = d.coords[:off+n]
		coords = d.coords[off : off+n : off+n]
	}
	d.events = append(d.events, dismastd.Event{Coords: coords, Value: value})
	return nil
}

// coordsValue decodes the value of a "coords" key into d.coords[off:]
// and returns its length. Like encoding/json decoding into a slice, an
// array reuses the storage an earlier "coords" of the same event left
// (every element written since it was last dropped), and null or an
// empty array drops it.
func (d *ingestDecoder) coordsValue(off int) (n int, err error) {
	switch d.peek() {
	case 'n':
		d.coords = d.coords[:off]
		return 0, d.literal("null")
	case '[':
	default:
		return 0, d.syntaxError("where a coordinate array should begin")
	}
	err = d.list(']', func(i int) error {
		n = i + 1
		if off+i == len(d.coords) {
			d.coords = append(d.coords, 0)
		}
		switch c := d.peek(); {
		case c == 'n':
			return d.literal("null")
		case c == '-' || c >= '0' && c <= '9':
			num, intLen, err := d.number()
			if err != nil {
				return err
			}
			v, perr := parseInt(num)
			if intLen != len(num) || perr != nil {
				return fmt.Errorf("coordinate %s at byte %d is not an integer in range", num, d.pos-len(num))
			}
			d.coords[off+i] = v
			return nil
		}
		return d.syntaxError("where a coordinate should be")
	})
	if n == 0 {
		d.coords = d.coords[:off]
	}
	return n, err
}

// floatValue decodes the value of a "value" key into *v; null leaves it.
func (d *ingestDecoder) floatValue(v *float64) error {
	switch c := d.peek(); {
	case c == 'n':
		return d.literal("null")
	case c == '-' || c >= '0' && c <= '9':
		num, _, err := d.number()
		if err != nil {
			return err
		}
		f, perr := strconv.ParseFloat(string(num), 64)
		if perr != nil {
			return fmt.Errorf("value %s at byte %d is out of range", num, d.pos-len(num))
		}
		*v = f
		return nil
	}
	return d.syntaxError("where a number should be")
}

// skipValue validates and passes over any JSON value.
func (d *ingestDecoder) skipValue() error {
	switch c := d.peek(); {
	case c == '"':
		return d.skipString()
	case c == 'n':
		return d.literal("null")
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == '-' || c >= '0' && c <= '9':
		_, _, err := d.number()
		return err
	case c == '[':
		return d.list(']', func(int) error { return d.skipValue() })
	case c == '{':
		return d.object(func([]byte) error { return d.skipValue() })
	}
	return d.syntaxError("where a value should begin")
}

// literal consumes the literal word, which the next byte begins.
func (d *ingestDecoder) literal(word string) error {
	for i := 0; i < len(word); i++ {
		if d.pos >= len(d.data) {
			return errTruncated
		}
		if d.data[d.pos] != word[i] {
			return d.syntaxError("in literal " + word)
		}
		d.pos++
	}
	return nil
}

// number consumes one number of the JSON grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns it with
// the length of its integer part, sign included.
func (d *ingestDecoder) number() (num []byte, intLen int, err error) {
	start := d.pos
	if d.data[d.pos] == '-' {
		d.pos++
	}
	switch {
	case d.pos >= len(d.data):
		return nil, 0, errTruncated
	case d.data[d.pos] == '0':
		d.pos++
	case d.data[d.pos] >= '1' && d.data[d.pos] <= '9':
		d.digits()
	default:
		return nil, 0, d.syntaxError("in a number")
	}
	intLen = d.pos - start
	if d.pos < len(d.data) && d.data[d.pos] == '.' {
		d.pos++
		if err := d.someDigits(); err != nil {
			return nil, 0, err
		}
	}
	if d.pos < len(d.data) && (d.data[d.pos] == 'e' || d.data[d.pos] == 'E') {
		d.pos++
		if d.pos < len(d.data) && (d.data[d.pos] == '+' || d.data[d.pos] == '-') {
			d.pos++
		}
		if err := d.someDigits(); err != nil {
			return nil, 0, err
		}
	}
	return d.data[start:d.pos], intLen, nil
}

// parseInt is strconv.ParseInt(string(num), 10, strconv.IntSize) for a
// number of the JSON grammar, without the conversion where num is too
// short to overflow.
func parseInt(num []byte) (int, error) {
	if len(num) > 18 || strconv.IntSize < 64 {
		v, err := strconv.ParseInt(string(num), 10, strconv.IntSize)
		return int(v), err
	}
	neg := num[0] == '-'
	if neg {
		num = num[1:]
	}
	v := 0
	for _, c := range num {
		v = 10*v + int(c-'0')
	}
	if neg {
		v = -v
	}
	return v, nil
}

func (d *ingestDecoder) digits() {
	data, i := d.data, d.pos
	for i < len(data) && data[i]-'0' <= 9 {
		i++
	}
	d.pos = i
}

// someDigits consumes one or more digits.
func (d *ingestDecoder) someDigits() error {
	if d.pos >= len(d.data) || d.data[d.pos]-'0' > 9 {
		return d.syntaxError("in a number")
	}
	d.digits()
	return nil
}

// skipString validates and passes over a string, opening quote first.
func (d *ingestDecoder) skipString() error {
	data, i := d.data, d.pos+1
	for i < len(data) {
		switch c := data[i]; {
		case c == '"':
			d.pos = i + 1
			return nil
		case c == '\\':
			d.pos = i
			if _, err := d.escape(); err != nil {
				return err
			}
			i = d.pos
		case c < 0x20:
			d.pos = i
			return d.syntaxError("in a string")
		default:
			i++
		}
	}
	return errTruncated
}

// keyString consumes a key and returns it unescaped: the raw bytes when
// it holds no escape, else a copy in d.key. Bytes that are not UTF-8
// stay as they are where encoding/json writes U+FFFD; neither folds to
// a letter of "coords" or "value", so the match is the same.
func (d *ingestDecoder) keyString() ([]byte, error) {
	start := d.pos + 1
	if err := d.skipString(); err != nil {
		return nil, err
	}
	raw := d.data[start : d.pos-1]
	if bytes.IndexByte(raw, '\\') < 0 {
		return raw, nil
	}
	d.key = d.key[:0]
	for i := 0; i < len(raw); {
		if raw[i] != '\\' {
			d.key = append(d.key, raw[i])
			i++
			continue
		}
		sub := ingestDecoder{data: raw, pos: i}
		r, _ := sub.escape() // validated by skipString
		if utf16.IsSurrogate(r) {
			// A valid pair is one rune; a lone surrogate is U+FFFD.
			r2 := rune(-1)
			if sub.pos < len(raw) && raw[sub.pos] == '\\' {
				r2, _ = sub.escape()
			}
			if r = utf16.DecodeRune(r, r2); r == utf8.RuneError {
				sub.pos = i + 6
			}
		}
		d.key = utf8.AppendRune(d.key, r)
		i = sub.pos
	}
	return d.key, nil
}

// escape consumes one backslash escape and returns the rune it names
// (a \u escape's UTF-16 code unit, surrogates included).
func (d *ingestDecoder) escape() (rune, error) {
	d.pos++
	if d.pos >= len(d.data) {
		return 0, errTruncated
	}
	if k := strings.IndexByte("\"\\/bfnrt", d.data[d.pos]); k >= 0 {
		d.pos++
		return rune("\"\\/\b\f\n\r\t"[k]), nil
	}
	if d.data[d.pos] != 'u' {
		return 0, d.syntaxError("in an escape")
	}
	d.pos++
	for k := d.pos; k < d.pos+4; k++ {
		if k >= len(d.data) {
			return 0, errTruncated
		}
		if c := d.data[k]; c-'0' > 9 && (c|0x20)-'a' > 5 {
			d.pos = k
			return 0, d.syntaxError("in a \\u escape")
		}
	}
	r, _ := strconv.ParseUint(string(d.data[d.pos:d.pos+4]), 16, 32)
	d.pos += 4
	return rune(r), nil
}
