package bench

// Phase breakdown experiment (observability extension): replay the
// paper's streaming protocol with the span tracer live and report where
// each rank's wall time goes — MTTKRP, solve, Gram all-reduce, row
// exchange, loss — per step and as per-phase medians over every
// retained span. This is the per-rank view Fig. 5 aggregates away.

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"

	"dismastd/internal/core"
	"dismastd/internal/dataset"
	"dismastd/internal/dtd"
	"dismastd/internal/obs"
	"dismastd/internal/partition"
)

// RankPhases is one rank's per-phase timing within one streaming step.
type RankPhases struct {
	Rank      int             `json:"rank"`
	BytesSent int64           `json:"bytes_sent"`
	Phases    []obs.PhaseStat `json:"phases"`
}

// PhaseStep is the per-rank breakdown of one streaming step.
type PhaseStep struct {
	Frac  float64      `json:"frac"`
	Iters int          `json:"iters"`
	Ranks []RankPhases `json:"ranks"`
}

// PhaseMedian summarises one phase across every span the stream's
// ranks retained: the median plus the p95/p99 tail, which is where a
// straggling rank shows up long before it moves the median.
type PhaseMedian struct {
	Phase    string `json:"phase"`
	Count    int    `json:"count"`
	MedianNs int64  `json:"median_ns"`
	P95Ns    int64  `json:"p95_ns"`
	P99Ns    int64  `json:"p99_ns"`
}

// PhasesReport is the full breakdown for one dataset's stream.
type PhasesReport struct {
	Dataset    string        `json:"dataset"`
	Workers    int           `json:"workers"`
	Threads    int           `json:"threads"`    // compute threads per worker (1 = sequential)
	GOMAXPROCS int           `json:"gomaxprocs"` // scheduler parallelism of the measuring process
	Steps      []PhaseStep   `json:"steps"`
	Medians    []PhaseMedian `json:"medians"`
}

// StreamPhases replays the 75%→100% stream on one dataset with
// DisMASTD-MTP and collects each step's per-rank phase timings from the
// run's observability snapshots.
func StreamPhases(cfg Config, k dataset.Kind) (*PhasesReport, error) {
	cfg = cfg.withDefaults()
	t := cfg.generate(k)
	seq, err := dataset.Stream(t, dataset.PaperFractions)
	if err != nil {
		return nil, err
	}
	st, _, err := dtd.Init(seq.Snapshot(0), dtd.Options{Rank: cfg.Rank, MaxIters: cfg.MaxIters, Mu: cfg.Mu, Seed: cfg.Seed, Threads: cfg.Threads})
	if err != nil {
		return nil, fmt.Errorf("phases %s init: %w", k, err)
	}
	threads := cfg.Threads
	if threads <= 0 {
		threads = 1
	}
	report := &PhasesReport{Dataset: k.String(), Workers: cfg.Workers, Threads: threads, GOMAXPROCS: runtime.GOMAXPROCS(0)}
	durs := map[string][]time.Duration{}
	for i := 1; i < seq.Len(); i++ {
		next, stats, err := core.Step(st, seq.Snapshot(i), core.Options{
			Rank: cfg.Rank, MaxIters: cfg.MaxIters, Tol: 1e-9, Mu: cfg.Mu, Seed: cfg.Seed,
			Workers: cfg.Workers, Method: partition.MTPMethod, Threads: cfg.Threads,
		})
		if err != nil {
			return nil, fmt.Errorf("phases %s step %d: %w", k, i, err)
		}
		st = next
		step := PhaseStep{Frac: dataset.PaperFractions[i], Iters: stats.Iters}
		for r, rk := range stats.Cluster.Ranks {
			if rk.Obs == nil {
				continue
			}
			step.Ranks = append(step.Ranks, RankPhases{
				Rank:      r,
				BytesSent: rk.BytesSent,
				Phases:    obs.AggregatePhases(rk.Obs.Phases),
			})
			for _, ev := range rk.Obs.Spans {
				ph := obs.PhaseOf(ev.Name)
				durs[ph] = append(durs[ph], ev.Dur)
			}
		}
		report.Steps = append(report.Steps, step)
	}
	for ph, ds := range durs {
		sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
		report.Medians = append(report.Medians, PhaseMedian{
			Phase:    ph,
			Count:    len(ds),
			MedianNs: int64(obs.QuantileDurations(ds, 0.5)),
			P95Ns:    int64(obs.QuantileDurations(ds, 0.95)),
			P99Ns:    int64(obs.QuantileDurations(ds, 0.99)),
		})
	}
	sort.Slice(report.Medians, func(a, b int) bool { return report.Medians[a].Phase < report.Medians[b].Phase })
	return report, nil
}

// Phases runs StreamPhases on every configured dataset.
func Phases(cfg Config) ([]*PhasesReport, error) {
	cfg = cfg.withDefaults()
	var out []*PhasesReport
	for _, k := range cfg.Datasets {
		rep, err := StreamPhases(cfg, k)
		if err != nil {
			return nil, err
		}
		out = append(out, rep)
	}
	return out, nil
}

// FormatPhases renders each report as a per-rank × per-phase table for
// the final stream step, followed by the per-phase span medians.
func FormatPhases(reports []*PhasesReport) string {
	var b strings.Builder
	for _, rep := range reports {
		if len(rep.Steps) == 0 {
			continue
		}
		last := rep.Steps[len(rep.Steps)-1]
		phases := phaseColumns(last)
		fmt.Fprintf(&b, "%s (final step, %d iters):\n", rep.Dataset, last.Iters)
		fmt.Fprintf(&b, "%6s", "rank")
		for _, ph := range phases {
			fmt.Fprintf(&b, " %12s", ph)
		}
		fmt.Fprintf(&b, " %12s\n", "bytes_sent")
		for _, rk := range last.Ranks {
			fmt.Fprintf(&b, "%6d", rk.Rank)
			totals := map[string]time.Duration{}
			for _, p := range rk.Phases {
				totals[p.Name] = p.Total
			}
			for _, ph := range phases {
				fmt.Fprintf(&b, " %12s", totals[ph].Round(time.Microsecond))
			}
			fmt.Fprintf(&b, " %12d\n", rk.BytesSent)
		}
		quantiles := []struct {
			label string
			ns    func(PhaseMedian) int64
		}{
			{"p50", func(m PhaseMedian) int64 { return m.MedianNs }},
			{"p95", func(m PhaseMedian) int64 { return m.P95Ns }},
			{"p99", func(m PhaseMedian) int64 { return m.P99Ns }},
		}
		for _, q := range quantiles {
			fmt.Fprintf(&b, "%6s", q.label)
			row := map[string]time.Duration{}
			for _, m := range rep.Medians {
				row[m.Phase] = time.Duration(q.ns(m))
			}
			for _, ph := range phases {
				fmt.Fprintf(&b, " %12s", row[ph].Round(time.Microsecond))
			}
			fmt.Fprintln(&b)
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// phaseColumns returns the union of phase names in a step, sorted.
func phaseColumns(step PhaseStep) []string {
	set := map[string]bool{}
	for _, rk := range step.Ranks {
		for _, p := range rk.Phases {
			set[p.Name] = true
		}
	}
	out := make([]string, 0, len(set))
	for ph := range set {
		out = append(out, ph)
	}
	sort.Strings(out)
	return out
}

// WritePhasesJSON emits the reports as indented JSON.
func WritePhasesJSON(w io.Writer, reports []*PhasesReport) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(reports)
}
