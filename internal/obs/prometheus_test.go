package obs

import (
	"strconv"
	"strings"
	"testing"
)

// parsePromText is a minimal text-format validator: every non-comment
// line must be `name[{labels}] value`, names must use the Prometheus
// charset, and each series must be preceded by a # TYPE comment. It
// returns the parsed samples keyed by the full series name (with label
// text included verbatim).
func parsePromText(t *testing.T, text string) map[string]float64 {
	t.Helper()
	typed := map[string]bool{}
	samples := map[string]float64{}
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			fields := strings.Fields(rest)
			if len(fields) != 2 {
				t.Fatalf("malformed TYPE line %q", line)
			}
			typed[fields[0]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		series, valText := line[:i], line[i+1:]
		v, err := strconv.ParseFloat(valText, 64)
		if err != nil {
			t.Fatalf("sample %q: bad value: %v", line, err)
		}
		name := series
		if j := strings.IndexByte(series, '{'); j >= 0 {
			name = series[:j]
			if !strings.HasSuffix(series, "}") {
				t.Fatalf("sample %q: unterminated label set", line)
			}
		}
		base := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if cut, ok := strings.CutSuffix(name, suffix); ok && typed[cut] {
				base = cut
				break
			}
		}
		if !typed[base] {
			t.Fatalf("series %q has no preceding # TYPE", series)
		}
		for k := 0; k < len(name); k++ {
			if !promNameByte(name[k]) {
				t.Fatalf("series name %q has invalid byte %q", name, name[k])
			}
		}
		samples[series] = v
	}
	return samples
}

func TestWritePrometheusMatchesRegistry(t *testing.T) {
	reg := newRegistry()
	reg.Counter("elastic.rebalance.fired").Add(2)
	reg.Gauge("elastic.imbalance.cv").Set(0.375)
	h := reg.Histogram("plane.fence.gather.ns", []float64{100, 1000})
	h.Observe(50)
	h.Observe(500)
	h.Observe(5000)

	var b strings.Builder
	if err := reg.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	samples := parsePromText(t, b.String())

	if got := samples["elastic_rebalance_fired"]; got != 2 {
		t.Fatalf("counter = %v, want 2", got)
	}
	if got := samples["elastic_imbalance_cv"]; got != 0.375 {
		t.Fatalf("gauge = %v, want 0.375", got)
	}
	if got := samples[`plane_fence_gather_ns_bucket{le="100"}`]; got != 1 {
		t.Fatalf("bucket le=100 = %v, want 1", got)
	}
	if got := samples[`plane_fence_gather_ns_bucket{le="1000"}`]; got != 2 {
		t.Fatalf("bucket le=1000 = %v, want cumulative 2", got)
	}
	if got := samples[`plane_fence_gather_ns_bucket{le="+Inf"}`]; got != 3 {
		t.Fatalf("bucket +Inf = %v, want 3", got)
	}
	if got := samples["plane_fence_gather_ns_count"]; got != 3 {
		t.Fatalf("count = %v, want 3", got)
	}
	if got := samples["plane_fence_gather_ns_sum"]; got != 5550 {
		t.Fatalf("sum = %v, want 5550", got)
	}
	if _, ok := samples["plane_fence_gather_ns_p99"]; !ok {
		t.Fatalf("missing derived p99 gauge; samples = %v", samples)
	}
}

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"mttkrp.rows":      "mttkrp_rows",
		"already_fine":     "already_fine",
		"0starts.digit":    "_0starts_digit",
		"comm/ring-bytes":  "comm_ring_bytes",
		"transport.dial#1": "transport_dial_1",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
