package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"dismastd/internal/dataset"
)

func TestStreamPhasesReportsEveryRankAndPhase(t *testing.T) {
	cfg := quickCfg()
	rep, err := StreamPhases(cfg, dataset.Book)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Steps) != len(dataset.PaperFractions)-1 {
		t.Fatalf("%d steps, want %d", len(rep.Steps), len(dataset.PaperFractions)-1)
	}
	for _, step := range rep.Steps {
		if len(step.Ranks) != cfg.Workers {
			t.Fatalf("step at %.0f%%: %d ranks, want %d", step.Frac*100, len(step.Ranks), cfg.Workers)
		}
	}
	// Every sweep phase must show up with nonzero time in the medians.
	seen := map[string]bool{}
	for _, m := range rep.Medians {
		seen[m.Phase] = true
		if m.Count == 0 {
			t.Fatalf("phase %s has no spans", m.Phase)
		}
		if m.P95Ns < m.MedianNs || m.P99Ns < m.P95Ns {
			t.Fatalf("phase %s quantiles out of order: p50=%d p95=%d p99=%d", m.Phase, m.MedianNs, m.P95Ns, m.P99Ns)
		}
	}
	for _, ph := range []string{"mttkrp", "solve", "allreduce", "exchange", "loss"} {
		if !seen[ph] {
			t.Fatalf("phase %s missing from medians %v", ph, rep.Medians)
		}
	}

	text := FormatPhases([]*PhasesReport{rep})
	if !strings.Contains(text, "mttkrp") || !strings.Contains(text, "rank") {
		t.Fatalf("table missing columns:\n%s", text)
	}

	var buf bytes.Buffer
	if err := WritePhasesJSON(&buf, []*PhasesReport{rep}); err != nil {
		t.Fatal(err)
	}
	var back []*PhasesReport
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if len(back) != 1 || back[0].Dataset != "Book" {
		t.Fatalf("round-trip mismatch: %+v", back)
	}
}

// BenchmarkStreamPaper is the paper-scale streaming benchmark: one
// full 75%→100% stream, with the tracer's per-phase medians surfaced
// as custom metrics that show where iteration time goes.
func BenchmarkStreamPaper(b *testing.B) {
	cfg := Config{TargetNNZ: 40000, Rank: 8, MaxIters: 5, Workers: 4, Seed: 42}
	var rep *PhasesReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = StreamPhases(cfg, dataset.Book)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, m := range rep.Medians {
		b.ReportMetric(float64(m.MedianNs)/1e3, m.Phase+"_p50_us")
		b.ReportMetric(float64(m.P95Ns)/1e3, m.Phase+"_p95_us")
		b.ReportMetric(float64(m.P99Ns)/1e3, m.Phase+"_p99_us")
	}
	iters := 0
	for _, s := range rep.Steps {
		iters += s.Iters
	}
	b.ReportMetric(float64(iters), "stream_iters")
}
