package bench

import (
	"fmt"
	"strings"

	"dismastd/internal/core"
	"dismastd/internal/cp"
	"dismastd/internal/dataset"
	"dismastd/internal/partition"
)

// Fit-quality experiment (extension): the paper evaluates efficiency
// and scalability and notes the accuracy parameters are held fixed
// (Section V-A), but a streaming method is only useful if its
// incremental factors stay close to what a full recomputation would
// produce. This runner walks the Fig. 5 stream and reports, at every
// step, the reconstruction fit (1 − ‖X − [[A]]‖/‖X‖) of DisMASTD's
// incrementally maintained factors next to the fit of a from-scratch
// DMS-MG decomposition of the same snapshot.

// FitPoint is one (dataset, step) quality sample.
type FitPoint struct {
	Dataset   string
	Frac      float64
	Streaming float64 // DisMASTD-MTP incremental fit
	Recompute float64 // DMS-MG-MTP from-scratch fit
}

// Fit runs the quality comparison.
func Fit(cfg Config) ([]FitPoint, error) {
	cfg = cfg.withDefaults()
	var points []FitPoint
	for _, k := range cfg.Datasets {
		seq, _, err := cfg.paperStream(k)
		if err != nil {
			return nil, err
		}
		st, err := cfg.bootstrap(seq.Snapshot(0))
		if err != nil {
			return nil, err
		}
		for i := 1; i < seq.Len(); i++ {
			snap := seq.Snapshot(i)
			st, _, err = cfg.step(st, snap, core.Options{
				Rank: cfg.Rank, MaxIters: cfg.MaxIters, Tol: 1e-9, Mu: cfg.Mu,
				Workers: cfg.Workers, Method: partition.MTPMethod,
			})
			if err != nil {
				return nil, fmt.Errorf("fit %s step %d: %w", k, i, err)
			}
			streaming := 1 - cp.LossAgainst(snap, st.Factors)/snap.Norm()

			_, mgStats, err := cfg.step(nil, snap, core.Options{
				Rank: cfg.Rank, MaxIters: cfg.MaxIters, Tol: 1e-9,
				Workers: cfg.Workers, Method: partition.MTPMethod,
			})
			if err != nil {
				return nil, fmt.Errorf("fit %s step %d recompute: %w", k, i, err)
			}
			points = append(points, FitPoint{
				Dataset: k.String(), Frac: dataset.PaperFractions[i],
				Streaming: streaming, Recompute: 1 - mgStats.Loss/snap.Norm(),
			})
		}
	}
	return points, nil
}

// FormatFit renders the quality comparison.
func FormatFit(points []FitPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %6s %12s %12s %10s\n", "Dataset", "Size", "streaming", "recompute", "gap")
	for _, p := range points {
		fmt.Fprintf(&b, "%-10s %5.0f%% %12.4f %12.4f %10.4f\n",
			p.Dataset, p.Frac*100, p.Streaming, p.Recompute, p.Recompute-p.Streaming)
	}
	return b.String()
}
