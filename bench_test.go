// Top-level benchmarks: one testing.B target per table and figure of
// the paper's evaluation, plus ablation benches for the design choices
// called out in DESIGN.md. Run with
//
//	go test -bench=. -benchmem .
//
// The full parameter sweeps with formatted output live in
// cmd/dismastd-bench; these benches time one representative cell of
// each experiment so regressions in any experiment path are visible in
// ordinary benchmark runs. Custom metrics report the quantity each
// experiment is actually about (imbalance, bytes, work units).
package dismastd_test

import (
	"testing"

	"dismastd/internal/core"
	"dismastd/internal/dataset"
	"dismastd/internal/dmsmg"
	"dismastd/internal/dtd"
	"dismastd/internal/mat"
	"dismastd/internal/mttkrp"
	"dismastd/internal/partition"
	"dismastd/internal/tensor"
	"dismastd/internal/xrand"
)

const benchNNZ = 30000

// benchStream returns a dataset's last two snapshots and a decomposition
// of the first — the setting every timing figure measures.
func benchStream(b *testing.B, kind dataset.Kind) (*dtd.State, *tensor.Tensor) {
	b.Helper()
	t := dataset.Preset(kind, benchNNZ, 42).Generate()
	seq, err := dataset.Stream(t, dataset.PaperFractions)
	if err != nil {
		b.Fatal(err)
	}
	prev, _, err := dtd.Init(seq.Snapshot(seq.Len()-2), dtd.Options{Rank: 10, MaxIters: 3, Seed: 42})
	if err != nil {
		b.Fatal(err)
	}
	return prev, seq.Snapshot(seq.Len() - 1)
}

// BenchmarkTable3Datasets times the dataset generators (Table III).
func BenchmarkTable3Datasets(b *testing.B) {
	for _, k := range dataset.Kinds {
		b.Run(k.String(), func(b *testing.B) {
			spec := dataset.Preset(k, benchNNZ, 42)
			for i := 0; i < b.N; i++ {
				_ = spec.Generate()
			}
		})
	}
}

// BenchmarkTable4Partitioning times GTP and MTP on each dataset's
// mode-0 histogram and reports the resulting imbalance (Table IV).
func BenchmarkTable4Partitioning(b *testing.B) {
	for _, k := range dataset.Kinds {
		hist := dataset.Preset(k, benchNNZ, 42).Generate().SliceNNZ(0)
		for _, method := range []partition.Method{partition.GTPMethod, partition.MTPMethod} {
			b.Run(k.String()+"/"+method.String(), func(b *testing.B) {
				var plan *partition.ModePlan
				for i := 0; i < b.N; i++ {
					plan = partition.Partition(hist, 15, method)
				}
				b.ReportMetric(plan.ImbalanceStdDev(), "imbalance")
			})
		}
	}
}

// BenchmarkFig5StreamingStep times one 95%→100% stream step per
// dataset for DisMASTD and the DMS-MG recompute baseline (Fig. 5).
func BenchmarkFig5StreamingStep(b *testing.B) {
	for _, k := range dataset.Kinds {
		prev, last := benchStream(b, k)
		b.Run(k.String()+"/DisMASTD-MTP", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Step(prev, last, core.Options{
					Rank: 10, MaxIters: 3, Tol: 0, Workers: 8, Method: partition.MTPMethod, Seed: 42,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(k.String()+"/DMS-MG-MTP", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := dmsmg.Decompose(last, dmsmg.Options{
					Rank: 10, MaxIters: 3, Tol: 0, Workers: 8, Method: partition.MTPMethod, Seed: 42,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig6Partitions times a stream step at the extreme partition
// counts of the paper's sweep (Fig. 6).
func BenchmarkFig6Partitions(b *testing.B) {
	prev, last := benchStream(b, dataset.Book)
	for _, parts := range []int{8, 15, 38} {
		b.Run(partName(parts), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := core.Step(prev, last, core.Options{
					Rank: 10, MaxIters: 3, Tol: 0, Workers: 8, Parts: parts, Method: partition.MTPMethod, Seed: 42,
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func partName(p int) string {
	return map[int]string{8: "parts=8", 15: "parts=15", 38: "parts=38"}[p]
}

// BenchmarkFig7Nodes times a stream step at the paper's cluster sizes
// and reports the straggler's work units, the quantity that shrinks
// with nodes (Fig. 7).
func BenchmarkFig7Nodes(b *testing.B) {
	prev, last := benchStream(b, dataset.Synthetic)
	for _, nodes := range []int{3, 9, 15} {
		b.Run(nodeName(nodes), func(b *testing.B) {
			var maxWork float64
			for i := 0; i < b.N; i++ {
				_, stats, err := core.Step(prev, last, core.Options{
					Rank: 10, MaxIters: 3, Tol: 0, Workers: nodes, Method: partition.MTPMethod, Seed: 42,
				})
				if err != nil {
					b.Fatal(err)
				}
				maxWork = stats.Cluster.MaxWork()
			}
			b.ReportMetric(maxWork, "straggler-work")
		})
	}
}

func nodeName(n int) string {
	return map[int]string{3: "nodes=3", 9: "nodes=9", 15: "nodes=15"}[n]
}

// ---- Ablations (DESIGN.md "Design choices called out for ablation") ----

// BenchmarkAblationMTTKRPKernels compares the flat scatter kernel with
// the row-grouped kernel on a skewed tensor.
func BenchmarkAblationMTTKRPKernels(b *testing.B) {
	t := dataset.Preset(dataset.Clothing, benchNNZ, 42).Generate()
	factors := make([]*mat.Dense, t.Order())
	src := newSrc()
	for m, d := range t.Dims {
		factors[m] = mat.RandomGaussian(d, 10, src)
	}
	b.Run("flat", func(b *testing.B) {
		dst := mat.New(t.Dims[0], 10)
		for i := 0; i < b.N; i++ {
			dst.Zero()
			mttkrp.AccumulateInto(dst, t, factors, 0)
		}
	})
	b.Run("row-grouped", func(b *testing.B) {
		view := mttkrp.NewModeView(t, 0)
		dst := mat.New(t.Dims[0], 10)
		ws := mat.NewWorkspace()
		for i := 0; i < b.N; i++ {
			dst.Zero()
			view.AccumulateIntoWS(dst, factors, ws)
		}
	})
}

// BenchmarkAblationLossReuse compares the Section IV-B4 reuse-based
// loss with a naive second pass over the entries, reporting the total
// work units each spends.
func BenchmarkAblationLossReuse(b *testing.B) {
	prev, last := benchStream(b, dataset.Netflix)
	for _, naive := range []bool{false, true} {
		name := "reuse"
		if naive {
			name = "naive"
		}
		b.Run(name, func(b *testing.B) {
			var work float64
			for i := 0; i < b.N; i++ {
				_, stats, err := core.Step(prev, last, core.Options{
					Rank: 10, MaxIters: 3, Tol: 0, Workers: 4, Method: partition.MTPMethod, Seed: 42, NaiveLoss: naive,
				})
				if err != nil {
					b.Fatal(err)
				}
				work = stats.Cluster.TotalWork()
			}
			b.ReportMetric(work, "work-units")
		})
	}
}

// BenchmarkAblationGTPBackoff compares GTP with and without the
// better-balance boundary choice (Algorithm 2 lines 10-12), reporting
// the imbalance each achieves on skewed data.
func BenchmarkAblationGTPBackoff(b *testing.B) {
	hist := dataset.Preset(dataset.Book, benchNNZ, 42).Generate().SliceNNZ(0)
	b.Run("with-backoff", func(b *testing.B) {
		var plan *partition.ModePlan
		for i := 0; i < b.N; i++ {
			plan = partition.GTP(hist, 15)
		}
		b.ReportMetric(plan.ImbalanceStdDev(), "imbalance")
	})
	b.Run("no-backoff", func(b *testing.B) {
		var plan *partition.ModePlan
		for i := 0; i < b.N; i++ {
			plan = partition.GTPNoBackoff(hist, 15)
		}
		b.ReportMetric(plan.ImbalanceStdDev(), "imbalance")
	})
}

// BenchmarkAblationRowExchange compares the subscription-based row
// exchange with a full owner broadcast, reporting measured traffic.
func BenchmarkAblationRowExchange(b *testing.B) {
	prev, last := benchStream(b, dataset.Clothing)
	for _, broadcast := range []bool{false, true} {
		name := "subscriptions"
		if broadcast {
			name = "broadcast"
		}
		b.Run(name, func(b *testing.B) {
			var bytes int64
			for i := 0; i < b.N; i++ {
				_, stats, err := core.Step(prev, last, core.Options{
					Rank: 10, MaxIters: 3, Tol: 0, Workers: 8, Method: partition.MTPMethod, Seed: 42, BroadcastRows: broadcast,
				})
				if err != nil {
					b.Fatal(err)
				}
				bytes = stats.Cluster.TotalBytes()
			}
			b.ReportMetric(float64(bytes), "bytes")
		})
	}
}

func newSrc() *xrand.Source { return xrand.New(42) }
