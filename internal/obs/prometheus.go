package obs

import (
	"bufio"
	"io"
	"sort"
	"strconv"
)

// Prometheus text-exposition export (version 0.0.4), dependency-free.
// The registry's dot-separated metric names ("elastic.recoveries")
// become underscore-separated series ("elastic_recoveries");
// histograms export the standard cumulative le-bucket series plus
// derived p50/p95/p99 gauges so tail latencies are scrapeable without
// server-side histogram_quantile.

// promName rewrites a registry metric name into the Prometheus
// identifier charset [a-zA-Z0-9_:], mapping every other byte to '_' and
// prefixing names that would start with a digit.
func promName(name string) string {
	ok := true
	for i := 0; i < len(name); i++ {
		if !promNameByte(name[i]) {
			ok = false
			break
		}
	}
	if ok && len(name) > 0 && !(name[0] >= '0' && name[0] <= '9') {
		return name
	}
	b := make([]byte, 0, len(name)+1)
	if len(name) > 0 && name[0] >= '0' && name[0] <= '9' {
		b = append(b, '_')
	}
	for i := 0; i < len(name); i++ {
		if promNameByte(name[i]) {
			b = append(b, name[i])
		} else {
			b = append(b, '_')
		}
	}
	return string(b)
}

func promNameByte(c byte) bool {
	return c == '_' || c == ':' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
}

func promFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the snapshot in Prometheus text-exposition
// format: counters and gauges one series each, histograms as cumulative
// le-buckets with _sum/_count plus _p50/_p95/_p99 quantile gauges.
// Series are emitted in sorted name order, so the output is
// deterministic for a given snapshot.
func (s MetricsSnapshot) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		n := promName(name)
		bw.WriteString("# TYPE " + n + " counter\n")
		bw.WriteString(n + " " + strconv.FormatInt(s.Counters[name], 10) + "\n")
	}
	names = names[:0]
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		n := promName(name)
		bw.WriteString("# TYPE " + n + " gauge\n")
		bw.WriteString(n + " " + promFloat(s.Gauges[name]) + "\n")
	}
	names = names[:0]
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := s.Histograms[name]
		n := promName(name)
		bw.WriteString("# TYPE " + n + " histogram\n")
		var cum int64
		for i, upper := range h.Uppers {
			cum += h.Counts[i]
			bw.WriteString(n + `_bucket{le="` + promFloat(upper) + `"} ` +
				strconv.FormatInt(cum, 10) + "\n")
		}
		total := h.Count()
		bw.WriteString(n + `_bucket{le="+Inf"} ` + strconv.FormatInt(total, 10) + "\n")
		bw.WriteString(n + "_sum " + promFloat(h.Sum) + "\n")
		bw.WriteString(n + "_count " + strconv.FormatInt(total, 10) + "\n")
		for _, pq := range [...]struct {
			suffix string
			q      float64
		}{{"_p50", 0.50}, {"_p95", 0.95}, {"_p99", 0.99}} {
			bw.WriteString("# TYPE " + n + pq.suffix + " gauge\n")
			bw.WriteString(n + pq.suffix + " " + promFloat(h.quantile(pq.q)) + "\n")
		}
	}
	return bw.Flush()
}
