package bench

import (
	"strings"
	"testing"

	"dismastd/internal/dataset"
	"dismastd/internal/partition"
)

// quickCfg keeps harness tests fast: small tensors, few workers/sweeps.
func quickCfg() Config {
	return Config{
		TargetNNZ: 8000,
		Rank:      4,
		MaxIters:  3,
		Workers:   4,
		Seed:      7,
	}
}

func TestTable3ShapesMatchPaperOrder(t *testing.T) {
	rows := Table3(quickCfg())
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	names := []string{"Clothing", "Book", "Netflix", "Synthetic"}
	for i, r := range rows {
		if r.Stats.Name != names[i] {
			t.Fatalf("row %d is %s", i, r.Stats.Name)
		}
		if r.Stats.NNZ <= 0 || r.PaperNNZ <= 0 {
			t.Fatalf("row %d empty: %+v", i, r)
		}
	}
	out := FormatTable3(rows)
	if !strings.Contains(out, "Netflix") || !strings.Contains(out, "paper") {
		t.Fatalf("format output:\n%s", out)
	}
}

func TestTable4ReproducesPaperShape(t *testing.T) {
	rows := Table4(quickCfg())
	// Index by (dataset, method, p).
	idx := map[string]map[partition.Method]map[int]float64{}
	for _, r := range rows {
		if idx[r.Dataset] == nil {
			idx[r.Dataset] = map[partition.Method]map[int]float64{}
		}
		if idx[r.Dataset][r.Method] == nil {
			idx[r.Dataset][r.Method] = map[int]float64{}
		}
		idx[r.Dataset][r.Method][r.P] = r.StdDev
	}
	// Paper shape 1: on every skewed (real-like) dataset MTP balances
	// better than GTP at every partition count.
	for _, ds := range []string{"Clothing", "Book", "Netflix"} {
		for _, p := range Table4PartCounts {
			g, m := idx[ds][partition.GTPMethod][p], idx[ds][partition.MTPMethod][p]
			if m > g {
				t.Fatalf("%s p=%d: MTP %.4f worse than GTP %.4f", ds, p, m, g)
			}
		}
	}
	// Paper shape 2: on Synthetic both methods are comparably balanced
	// (within a small absolute gap).
	for _, p := range Table4PartCounts {
		g, m := idx["Synthetic"][partition.GTPMethod][p], idx["Synthetic"][partition.MTPMethod][p]
		if diff := g - m; diff < -0.1 || diff > 0.1 {
			t.Fatalf("Synthetic p=%d: gap %.4f too large (GTP %.4f MTP %.4f)", p, diff, g, m)
		}
	}
	if out := FormatTable4(rows); !strings.Contains(out, "GTP") || !strings.Contains(out, "MTP") {
		t.Fatal("format output missing methods")
	}
}

func TestFig5ReproducesPaperShape(t *testing.T) {
	cfg := quickCfg()
	cfg.Datasets = []dataset.Kind{dataset.Netflix}
	points, err := Fig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	byMethod := map[string][]Fig5Point{}
	for _, p := range points {
		byMethod[p.Method] = append(byMethod[p.Method], p)
	}
	if len(byMethod) != 4 {
		t.Fatalf("methods: %v", len(byMethod))
	}
	for name, series := range byMethod {
		if len(series) != 5 {
			t.Fatalf("%s has %d points", name, len(series))
		}
	}
	// Shape 1: DisMASTD processes far fewer entries per iteration than
	// DMS-MG at every step (complement vs whole snapshot).
	for i := range byMethod["DisMASTD-MTP"] {
		dm := byMethod["DisMASTD-MTP"][i]
		mg := byMethod["DMS-MG-MTP"][i]
		if dm.NNZ*2 >= mg.NNZ {
			t.Fatalf("step %.0f%%: DisMASTD nnz %d not well below DMS-MG %d", dm.Frac*100, dm.NNZ, mg.NNZ)
		}
	}
	// Shape 2: DMS-MG's per-iteration data grows along the stream while
	// DisMASTD's stays bounded by the per-step delta.
	mg := byMethod["DMS-MG-GTP"]
	if mg[len(mg)-1].NNZ <= mg[0].NNZ {
		t.Fatal("DMS-MG workload did not grow with the stream")
	}
	// Shape 3: simulated per-iteration time favours DisMASTD at the
	// final (largest) snapshot.
	dmLast := byMethod["DisMASTD-MTP"][4]
	mgLast := byMethod["DMS-MG-MTP"][4]
	if dmLast.SimPerIter >= mgLast.SimPerIter {
		t.Fatalf("final step: DisMASTD sim %v not below DMS-MG %v", dmLast.SimPerIter, mgLast.SimPerIter)
	}
	if out := FormatFig5(points); !strings.Contains(out, "DisMASTD-GTP") {
		t.Fatal("format output missing series")
	}
}

func TestFig6ReproducesPaperShape(t *testing.T) {
	cfg := quickCfg()
	cfg.Workers = 4
	cfg.Datasets = []dataset.Kind{dataset.Book}
	points, err := Fig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// 2 methods x 5 partition counts.
	if len(points) != 10 {
		t.Fatalf("%d points", len(points))
	}
	// Shape: simulated time is worse when partitions exceed workers by
	// several waves (p=38 vs p=8 with 4 workers is 10 waves vs 2).
	var p8, p38 Fig6Point
	for _, p := range points {
		if p.Method == "DisMASTD-MTP" && p.Parts == 8 {
			p8 = p
		}
		if p.Method == "DisMASTD-MTP" && p.Parts == 38 {
			p38 = p
		}
	}
	if p38.SimPerIter <= p8.SimPerIter {
		t.Fatalf("p=38 sim %v not above p=8 sim %v despite extra scheduling waves", p38.SimPerIter, p8.SimPerIter)
	}
	if out := FormatFig6(points); !strings.Contains(out, "parts") {
		t.Fatal("format output missing header")
	}
}

func TestFig7ReproducesPaperShape(t *testing.T) {
	cfg := quickCfg()
	cfg.TargetNNZ = 20000
	cfg.Datasets = []dataset.Kind{dataset.Netflix, dataset.Synthetic}
	points, err := Fig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2*len(Fig7NodeCounts) {
		t.Fatalf("%d points", len(points))
	}
	series := map[string][]Fig7Point{}
	for _, p := range points {
		series[p.Dataset] = append(series[p.Dataset], p)
	}
	speedup := func(name string) float64 {
		s := series[name]
		first, last := s[0], s[len(s)-1]
		// Shape 1: more nodes reduce the simulated per-iteration time.
		if last.SimPerIter >= first.SimPerIter {
			t.Fatalf("%s: %d nodes sim %v not below %d nodes %v", name, last.Nodes, last.SimPerIter, first.Nodes, first.SimPerIter)
		}
		// And the straggler work itself must drop.
		maxWork := func(p Fig7Point) (m float64) {
			for _, r := range p.Stats.Ranks {
				m = max(m, r.Work)
			}
			return m
		}
		if maxWork(last) >= maxWork(first) {
			t.Fatalf("%s: max per-node work did not drop with more nodes", name)
		}
		return float64(first.SimPerIter) / float64(last.SimPerIter)
	}
	// Shape 2 (the paper's Section V-B3 observation): the speedup on the
	// big Synthetic dataset exceeds the speedup on the smaller datasets,
	// where fixed startup costs dominate.
	if synth, netflix := speedup("Synthetic"), speedup("Netflix"); synth <= netflix {
		t.Fatalf("Synthetic speedup %.2f not above Netflix %.2f", synth, netflix)
	}
	if out := FormatFig7(points); !strings.Contains(out, "nodes") {
		t.Fatal("format output missing header")
	}
}

func TestFig5DisMASTDWinsEverywhere(t *testing.T) {
	// At the final (largest) snapshot DisMASTD must beat the DMS-MG
	// recompute baseline in simulated time on every dataset, for both
	// partitioners — the headline comparison of Fig. 5.
	cfg := quickCfg()
	cfg.TargetNNZ = 20000
	points, err := Fig5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	last := map[string]map[string]Fig5Point{}
	for _, p := range points {
		if p.Frac != 1.0 {
			continue
		}
		if last[p.Dataset] == nil {
			last[p.Dataset] = map[string]Fig5Point{}
		}
		last[p.Dataset][p.Method] = p
	}
	for ds, methods := range last {
		for _, suffix := range []string{"GTP", "MTP"} {
			dm := methods["DisMASTD-"+suffix]
			mg := methods["DMS-MG-"+suffix]
			if dm.SimPerIter >= mg.SimPerIter {
				t.Fatalf("%s/%s: DisMASTD sim %v not below DMS-MG %v", ds, suffix, dm.SimPerIter, mg.SimPerIter)
			}
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.TargetNNZ != 100000 || c.Rank != 10 || c.Mu != 0.8 || c.MaxIters != 10 || c.Workers != 15 {
		t.Fatalf("defaults: %+v", c)
	}
	if len(c.Datasets) != 4 {
		t.Fatalf("default datasets: %v", c.Datasets)
	}
}

func TestCommSweepStaysWithinConstantBand(t *testing.T) {
	cfg := quickCfg()
	cfg.TargetNNZ = 10000
	points, err := Comm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 7 {
		t.Fatalf("%d points", len(points))
	}
	// Theorem 4 holds up to constants: the measured/formula ratio must
	// stay within one order of magnitude across every sweep.
	min, max := points[0].Ratio, points[0].Ratio
	for _, p := range points {
		if p.Ratio <= 0 {
			t.Fatalf("non-positive ratio: %+v", p)
		}
		if p.Ratio < min {
			min = p.Ratio
		}
		if p.Ratio > max {
			max = p.Ratio
		}
	}
	if max/min > 10 {
		t.Fatalf("measured/formula ratio varies %0.1fx (%.3f..%.3f); Theorem 4 predicts a constant band", max/min, min, max)
	}
	if out := FormatComm(points); !strings.Contains(out, "theorem4") {
		t.Fatal("format output missing header")
	}
}

func TestFitGapIsSmall(t *testing.T) {
	// The streaming approximation must track the from-scratch fit: the
	// gap at every step stays small relative to the recompute fit.
	cfg := quickCfg()
	cfg.TargetNNZ = 10000
	cfg.MaxIters = 8
	cfg.Datasets = []dataset.Kind{dataset.Netflix}
	points, err := Fit(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 5 {
		t.Fatalf("%d points", len(points))
	}
	for _, p := range points {
		if p.Streaming <= 0 || p.Recompute <= 0 {
			t.Fatalf("non-positive fit: %+v", p)
		}
		if gap := p.Recompute - p.Streaming; gap > 0.15 {
			t.Fatalf("step %.0f%%: streaming fit %.4f trails recompute %.4f by %.4f", p.Frac*100, p.Streaming, p.Recompute, gap)
		}
	}
	if out := FormatFit(points); !strings.Contains(out, "recompute") {
		t.Fatal("format output missing header")
	}
}
