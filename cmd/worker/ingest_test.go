package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dismastd"
)

// eventJSON is the wire form of one event as encoding/json reads it:
// the oracle decodeEvents is held to, and the tests' encoder.
type eventJSON struct {
	Coords []int   `json:"coords"`
	Value  float64 `json:"value"`
}

// checkDecode decodes body with decodeEvents and with encoding/json and
// fails unless both accept it or both refuse it, and accepted bodies
// give the same events bit for bit.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	got, err := decodeEvents(body)
	var want []eventJSON
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("body %q: decodeEvents error %v, encoding/json error %v", body, err, wantErr)
	}
	if err != nil {
		return
	}
	if len(got) != len(want) {
		t.Fatalf("body %q: %d events, encoding/json %d", body, len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if len(g.Coords) != len(w.Coords) || math.Float64bits(g.Value) != math.Float64bits(w.Value) {
			t.Fatalf("body %q: event %d is %v, encoding/json %v", body, i, g, w)
		}
		for m := range w.Coords {
			if g.Coords[m] != w.Coords[m] {
				t.Fatalf("body %q: event %d is %v, encoding/json %v", body, i, g, w)
			}
		}
	}
}

// FuzzIngestDecode holds the /ingest decoder to encoding/json. The
// committed corpus has one body per behaviour of the oracle that the
// decoder reproduces, the shape the benchmark's client sends, and edge
// cases; the seeds added here sit at encoding/json's nesting limit.
func FuzzIngestDecode(f *testing.F) {
	nest := func(depth int) []byte {
		// The outer array and the event object are two levels.
		inner := depth - 2
		return []byte(`[{"x":` + strings.Repeat("[", inner) + strings.Repeat("]", inner) + `,"coords":[1],"value":2}]`)
	}
	f.Add(nest(maxNesting))
	f.Add(nest(maxNesting + 1))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecode(t, body)
	})
}

// TestIngestDecodeAllocsPerBody: decoding allocates per body, not per
// event — a 20 000-event body costs no more allocations than a 16-event
// one.
func TestIngestDecodeAllocsPerBody(t *testing.T) {
	allocs := func(n int) float64 {
		body, err := json.Marshal(serveEvents(n, 7))
		if err != nil {
			t.Fatal(err)
		}
		checkDecode(t, body)
		return testing.AllocsPerRun(5, func() {
			if _, err := decodeEvents(body); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(16), allocs(20_000)
	if large > small+2 {
		t.Fatalf("a 20000-event body allocates %v objects, a 16-event body %v", large, small)
	}
}

// zeros reads as an endless run of '0' bytes.
type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '0'
	}
	return len(p), nil
}

// TestIngestRefusesOversizedBody: a body one byte over the ceiling is
// refused as too large (413), not as malformed, and the stream is left
// as it was; a body at the ceiling is read whole and judged on its
// content.
func TestIngestRefusesOversizedBody(t *testing.T) {
	s := newServeServer(dismastd.NewStream(dismastd.Options{Rank: 2, MaxIters: 2, Seed: 1}), nil)
	for _, tc := range []struct {
		size int64
		want int
	}{
		{maxIngestBody + 1, http.StatusRequestEntityTooLarge},
		{maxIngestBody, http.StatusBadRequest}, // a run of zeros is no JSON array
	} {
		req := httptest.NewRequest(http.MethodPost, "/ingest", io.LimitReader(zeros{}, tc.size))
		req.ContentLength = tc.size
		rec := httptest.NewRecorder()
		s.handleIngest(rec, req)
		if rec.Code != tc.want {
			t.Errorf("%d-byte body: status %d (%s), want %d", tc.size, rec.Code, strings.TrimSpace(rec.Body.String()), tc.want)
		}
	}
	if s.stream.Pending() != 0 {
		t.Fatalf("refused bodies left %d events pending", s.stream.Pending())
	}
}
