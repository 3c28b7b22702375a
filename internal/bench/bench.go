// Package bench regenerates every table and figure of the paper's
// evaluation (Section V): Table III (dataset statistics), Table IV
// (partitioning balance), Fig. 5 (running time per iteration along the
// multi-aspect stream), Fig. 6 (running time vs number of partitions),
// and Fig. 7 (running time vs number of nodes).
//
// Each runner executes the real distributed algorithms on the
// in-process cluster and reports both the measured wall-clock per
// iteration and the simtime cluster estimate (see internal/simtime and
// DESIGN.md for why both exist on a single-core host). The numbers are
// not the paper's absolute numbers — the testbed differs — but the
// shapes the paper argues from are asserted by this package's tests.
package bench

import (
	"fmt"
	"strings"
	"time"

	"dismastd/internal/cluster"
	"dismastd/internal/core"
	"dismastd/internal/dataset"
	"dismastd/internal/dmsmg"
	"dismastd/internal/dtd"
	"dismastd/internal/partition"
	"dismastd/internal/simtime"
	"dismastd/internal/tensor"
)

// Config scales and parameterises the experiment suite.
type Config struct {
	TargetNNZ int     // entries per generated dataset; default 100000
	Rank      int     // R; the paper uses 10
	Mu        float64 // forgetting factor; the paper uses 0.8
	MaxIters  int     // sweeps per decomposition; the paper uses 10
	Workers   int     // cluster size; the paper's testbed has 15 nodes
	Threads   int     // compute threads per worker; 0/1 = sequential
	Seed      uint64
	Model     simtime.Model
	Datasets  []dataset.Kind
}

func (c Config) withDefaults() Config {
	if c.TargetNNZ <= 0 {
		c.TargetNNZ = 100000
	}
	if c.Rank <= 0 {
		c.Rank = 10
	}
	if c.Mu == 0 {
		c.Mu = 0.8
	}
	if c.MaxIters <= 0 {
		c.MaxIters = 10
	}
	if c.Workers <= 0 {
		c.Workers = 15
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Model == (simtime.Model{}) {
		c.Model = simtime.Default()
	}
	if len(c.Datasets) == 0 {
		c.Datasets = dataset.Kinds
	}
	return c
}

func (c Config) generate(k dataset.Kind) *tensor.Tensor {
	return dataset.Preset(k, c.TargetNNZ, c.Seed).Generate()
}

// scaledModel returns the cost model matched to dataset k at this run's
// reduced scale, so the ratios between the cost components stay what
// they were on the paper's testbed instead of everything drowning in
// the fixed scheduling/latency overheads. The two dominant quantities
// scale differently, so each gets its own factor:
//
//   - compute is nnz-dominated (MTTKRP), so ComputeRate shrinks by
//     nnz(generated)/nnz(paper);
//   - per-iteration traffic is dims-dominated (factor-row exchange and
//     Gram reductions scale with mode sizes, not entries), so Bandwidth
//     shrinks by Σdims(generated)/Σdims(paper). This matters for
//     Synthetic, whose generated dims are floored far above
//     proportional scale to stay partitionable.
//
// See DESIGN.md ("Substitutions").
func (c Config) scaledModel(k dataset.Kind, genDims []int) simtime.Model {
	paperDims, paperNNZ := dataset.PaperRow(k)
	m := c.Model
	m.ComputeRate *= float64(c.TargetNNZ) / paperNNZ
	var ours, paper float64
	for _, d := range genDims {
		ours += float64(d)
	}
	for _, d := range paperDims {
		paper += d
	}
	m.Bandwidth *= ours / paper
	return m
}

// setupPerIter amortises a method's per-snapshot data redistribution
// (Theorem 4's O(nnz + NIR) setup communication) over the snapshot's
// iterations. This is where the streaming methods bank their largest
// practical win on big data: DMS-MG reships the whole tensor every
// snapshot, DisMASTD only the relative complement.
func setupPerIter(model simtime.Model, setupBytes int64, iters int) time.Duration {
	if iters < 1 {
		iters = 1
	}
	return time.Duration(float64(setupBytes) / model.Bandwidth / float64(iters) * float64(time.Second))
}

// ---- Table III ----------------------------------------------------------

// Table3Row pairs a generated dataset's statistics with the paper's.
type Table3Row struct {
	Stats     dataset.Stats
	PaperDims [3]float64
	PaperNNZ  float64
}

// Table3 generates each dataset and reports its statistics.
func Table3(cfg Config) []Table3Row {
	cfg = cfg.withDefaults()
	var rows []Table3Row
	for _, k := range cfg.Datasets {
		t := cfg.generate(k)
		dims, nnz := dataset.PaperRow(k)
		rows = append(rows, Table3Row{Stats: dataset.Describe(k.String(), t), PaperDims: dims, PaperNNZ: nnz})
	}
	return rows
}

// FormatTable3 renders the rows like the paper's Table III.
func FormatTable3(rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %10s %10s %10s %10s   (paper: I, J, K, nnz)\n", "Dataset", "I", "J", "K", "nnz")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %10d %10d %10d %10d   (%.1e, %.1e, %.1e, %.1e)\n",
			r.Stats.Name, r.Stats.Dims[0], r.Stats.Dims[1], r.Stats.Dims[2], r.Stats.NNZ,
			r.PaperDims[0], r.PaperDims[1], r.PaperDims[2], r.PaperNNZ)
	}
	return b.String()
}

// ---- Table IV -----------------------------------------------------------

// Table4Row is one (dataset, partitioner, p) balance measurement: the
// standard deviation of partition nnz normalised by the mean, averaged
// over the three modes.
type Table4Row struct {
	Dataset string
	Method  partition.Method
	P       int
	StdDev  float64
}

// Table4PartCounts are the paper's partition counts.
var Table4PartCounts = []int{8, 15, 23, 30, 38}

// Table4 partitions each dataset's modes with both heuristics at every
// partition count.
func Table4(cfg Config) []Table4Row {
	cfg = cfg.withDefaults()
	var rows []Table4Row
	for _, k := range cfg.Datasets {
		t := cfg.generate(k)
		hists := make([][]int64, t.Order())
		for m := range hists {
			hists[m] = t.SliceNNZ(m)
		}
		for _, method := range []partition.Method{partition.GTPMethod, partition.MTPMethod} {
			for _, p := range Table4PartCounts {
				sum := 0.0
				for m := range hists {
					sum += partition.Partition(hists[m], p, method).ImbalanceStdDev()
				}
				rows = append(rows, Table4Row{Dataset: k.String(), Method: method, P: p, StdDev: sum / float64(len(hists))})
			}
		}
	}
	return rows
}

// FormatTable4 renders the rows like the paper's Table IV.
func FormatTable4(rows []Table4Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-6s", "Dataset", "p")
	for _, p := range Table4PartCounts {
		fmt.Fprintf(&b, " %8d", p)
	}
	fmt.Fprintln(&b)
	// Group rows (dataset, method) -> p -> stddev.
	type key struct {
		ds     string
		method partition.Method
	}
	grouped := map[key]map[int]float64{}
	var order []key
	for _, r := range rows {
		k := key{r.Dataset, r.Method}
		if grouped[k] == nil {
			grouped[k] = map[int]float64{}
			order = append(order, k)
		}
		grouped[k][r.P] = r.StdDev
	}
	for _, k := range order {
		fmt.Fprintf(&b, "%-10s %-6s", k.ds, k.method)
		for _, p := range Table4PartCounts {
			fmt.Fprintf(&b, " %8.4f", grouped[k][p])
		}
		fmt.Fprintln(&b)
	}
	return b.String()
}

// ---- Method runners ------------------------------------------------------

// Method names the four compared systems of Section V-B1.
type Method struct {
	Name        string
	Streaming   bool // DisMASTD reuses the previous state; DMS-MG recomputes
	Partitioner partition.Method
}

// Methods is the paper's comparison set.
var Methods = []Method{
	{"DisMASTD-GTP", true, partition.GTPMethod},
	{"DisMASTD-MTP", true, partition.MTPMethod},
	{"DMS-MG-GTP", false, partition.GTPMethod},
	{"DMS-MG-MTP", false, partition.MTPMethod},
}

// Measurement is one (method, configuration) timing sample.
type Measurement struct {
	Iters       int
	NNZ         int // entries the method processed per iteration
	WallPerIter time.Duration
	SimPerIter  time.Duration
	Stats       *cluster.RunStats
}

// runDisMASTD performs one streaming step and returns the new state
// plus its measurement.
func (c Config) runDisMASTD(model simtime.Model, prev *dtd.State, snap *tensor.Tensor, method partition.Method, workers, parts int) (*dtd.State, Measurement, error) {
	st, stats, err := core.Step(prev, snap, core.Options{
		Rank: c.Rank, MaxIters: c.MaxIters, Tol: 1e-9, Mu: c.Mu, Seed: c.Seed,
		Workers: workers, Parts: parts, Method: method, Threads: c.Threads,
	})
	if err != nil {
		return nil, Measurement{}, err
	}
	waves := simtime.Waves(parts, workers)
	m := Measurement{
		Iters:       stats.Iters,
		NNZ:         stats.ComplementNNZ,
		WallPerIter: stats.Cluster.Wall / time.Duration(stats.Iters),
		SimPerIter:  model.PerIteration(stats.Cluster, stats.Iters, waves) + setupPerIter(model, stats.SetupBytes, stats.Iters),
		Stats:       stats.Cluster,
	}
	return st, m, nil
}

// runDMSMG decomposes the snapshot from scratch and returns the
// measurement.
func (c Config) runDMSMG(model simtime.Model, snap *tensor.Tensor, method partition.Method, workers, parts int) (Measurement, error) {
	_, stats, err := dmsmg.Decompose(snap, dmsmg.Options{
		Rank: c.Rank, MaxIters: c.MaxIters, Tol: 1e-9, Seed: c.Seed,
		Workers: workers, Parts: parts, Method: method, Threads: c.Threads,
	})
	if err != nil {
		return Measurement{}, err
	}
	waves := simtime.Waves(parts, workers)
	return Measurement{
		Iters:       stats.Iters,
		NNZ:         stats.NNZ,
		WallPerIter: stats.Cluster.Wall / time.Duration(stats.Iters),
		SimPerIter:  model.PerIteration(stats.Cluster, stats.Iters, waves) + setupPerIter(model, stats.SetupBytes, stats.Iters),
		Stats:       stats.Cluster,
	}, nil
}

// ---- Fig. 5 --------------------------------------------------------------

// Fig5Point is one (dataset, method, stream step) sample.
type Fig5Point struct {
	Dataset string
	Method  string
	Frac    float64 // snapshot size as a fraction of the full dataset
	Measurement
}

// Fig5 walks the 75%→100% stream on every dataset with all four
// methods. The 75% snapshot bootstraps the streaming methods
// (decomposed once, centrally); measurements cover the five growth
// steps 80%..100%, as in the paper's streaming protocol.
func Fig5(cfg Config) ([]Fig5Point, error) {
	cfg = cfg.withDefaults()
	var points []Fig5Point
	for _, k := range cfg.Datasets {
		t := cfg.generate(k)
		model := cfg.scaledModel(k, t.Dims)
		seq, err := dataset.Stream(t, dataset.PaperFractions)
		if err != nil {
			return nil, err
		}
		snaps := make([]*tensor.Tensor, seq.Len())
		for i := range snaps {
			snaps[i] = seq.Snapshot(i)
		}
		for _, method := range Methods {
			if method.Streaming {
				st, _, err := dtd.Init(snaps[0], dtd.Options{Rank: cfg.Rank, MaxIters: cfg.MaxIters, Mu: cfg.Mu, Seed: cfg.Seed, Threads: cfg.Threads})
				if err != nil {
					return nil, fmt.Errorf("fig5 %s %s init: %w", k, method.Name, err)
				}
				for i := 1; i < seq.Len(); i++ {
					var m Measurement
					st, m, err = cfg.runDisMASTD(model, st, snaps[i], method.Partitioner, cfg.Workers, cfg.Workers)
					if err != nil {
						return nil, fmt.Errorf("fig5 %s %s step %d: %w", k, method.Name, i, err)
					}
					points = append(points, Fig5Point{Dataset: k.String(), Method: method.Name, Frac: dataset.PaperFractions[i], Measurement: m})
				}
			} else {
				for i := 1; i < seq.Len(); i++ {
					m, err := cfg.runDMSMG(model, snaps[i], method.Partitioner, cfg.Workers, cfg.Workers)
					if err != nil {
						return nil, fmt.Errorf("fig5 %s %s step %d: %w", k, method.Name, i, err)
					}
					points = append(points, Fig5Point{Dataset: k.String(), Method: method.Name, Frac: dataset.PaperFractions[i], Measurement: m})
				}
			}
		}
	}
	return points, nil
}

// FormatFig5 renders the series like the paper's Fig. 5 panels.
func FormatFig5(points []Fig5Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-14s %6s %10s %8s %14s %14s\n", "Dataset", "Method", "Size", "nnz/iter", "iters", "wall/iter", "sim/iter")
	for _, p := range points {
		fmt.Fprintf(&b, "%-10s %-14s %5.0f%% %10d %8d %14s %14s\n",
			p.Dataset, p.Method, p.Frac*100, p.NNZ, p.Iters, p.WallPerIter.Round(time.Microsecond), p.SimPerIter.Round(time.Millisecond))
	}
	return b.String()
}

// ---- Fig. 6 --------------------------------------------------------------

// Fig6Point is one (dataset, method, partition count) sample, measured
// on the final stream step (95% → 100%).
type Fig6Point struct {
	Dataset string
	Method  string
	Parts   int
	Measurement
}

// Fig6 varies the per-mode partition count with a fixed worker count.
func Fig6(cfg Config) ([]Fig6Point, error) {
	cfg = cfg.withDefaults()
	var points []Fig6Point
	for _, k := range cfg.Datasets {
		t := cfg.generate(k)
		model := cfg.scaledModel(k, t.Dims)
		seq, err := dataset.Stream(t, dataset.PaperFractions)
		if err != nil {
			return nil, err
		}
		prevSnap := seq.Snapshot(seq.Len() - 2)
		st, _, err := dtd.Init(prevSnap, dtd.Options{Rank: cfg.Rank, MaxIters: cfg.MaxIters, Mu: cfg.Mu, Seed: cfg.Seed, Threads: cfg.Threads})
		if err != nil {
			return nil, fmt.Errorf("fig6 %s init: %w", k, err)
		}
		last := seq.Snapshot(seq.Len() - 1)
		for _, method := range Methods[:2] { // the DisMASTD variants
			for _, p := range Table4PartCounts {
				_, m, err := cfg.runDisMASTD(model, st, last, method.Partitioner, cfg.Workers, p)
				if err != nil {
					return nil, fmt.Errorf("fig6 %s %s p=%d: %w", k, method.Name, p, err)
				}
				points = append(points, Fig6Point{Dataset: k.String(), Method: method.Name, Parts: p, Measurement: m})
			}
		}
	}
	return points, nil
}

// FormatFig6 renders the partition sweep.
func FormatFig6(points []Fig6Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-14s %6s %8s %14s %14s\n", "Dataset", "Method", "parts", "iters", "wall/iter", "sim/iter")
	for _, p := range points {
		fmt.Fprintf(&b, "%-10s %-14s %6d %8d %14s %14s\n",
			p.Dataset, p.Method, p.Parts, p.Iters, p.WallPerIter.Round(time.Microsecond), p.SimPerIter.Round(time.Millisecond))
	}
	return b.String()
}

// ---- Fig. 7 --------------------------------------------------------------

// Fig7Point is one (dataset, node count) sample of DisMASTD-MTP on the
// final stream step.
type Fig7Point struct {
	Dataset string
	Nodes   int
	Measurement
}

// Fig7NodeCounts are the paper's cluster sizes.
var Fig7NodeCounts = []int{3, 6, 9, 12, 15}

// Fig7 varies the number of worker nodes.
func Fig7(cfg Config) ([]Fig7Point, error) {
	cfg = cfg.withDefaults()
	var points []Fig7Point
	for _, k := range cfg.Datasets {
		t := cfg.generate(k)
		model := cfg.scaledModel(k, t.Dims)
		seq, err := dataset.Stream(t, dataset.PaperFractions)
		if err != nil {
			return nil, err
		}
		st, _, err := dtd.Init(seq.Snapshot(seq.Len()-2), dtd.Options{Rank: cfg.Rank, MaxIters: cfg.MaxIters, Mu: cfg.Mu, Seed: cfg.Seed, Threads: cfg.Threads})
		if err != nil {
			return nil, fmt.Errorf("fig7 %s init: %w", k, err)
		}
		last := seq.Snapshot(seq.Len() - 1)
		for _, nodes := range Fig7NodeCounts {
			_, m, err := cfg.runDisMASTD(model, st, last, partition.MTPMethod, nodes, nodes)
			if err != nil {
				return nil, fmt.Errorf("fig7 %s nodes=%d: %w", k, nodes, err)
			}
			points = append(points, Fig7Point{Dataset: k.String(), Nodes: nodes, Measurement: m})
		}
	}
	return points, nil
}

// FormatFig7 renders the node sweep.
func FormatFig7(points []Fig7Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %6s %8s %14s %14s\n", "Dataset", "nodes", "iters", "wall/iter", "sim/iter")
	for _, p := range points {
		fmt.Fprintf(&b, "%-10s %6d %8d %14s %14s\n",
			p.Dataset, p.Nodes, p.Iters, p.WallPerIter.Round(time.Microsecond), p.SimPerIter.Round(time.Millisecond))
	}
	return b.String()
}
