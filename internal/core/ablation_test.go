package core

// Ablation benchmarks for the two design choices the unexported
// Options hooks switch off (DESIGN.md, "Design choices called out for
// ablation"). Run with
//
//	go test -run '^$' -bench Ablation ./internal/core/

import (
	"testing"

	"dismastd/internal/dataset"
	"dismastd/internal/dtd"
	"dismastd/internal/partition"
	"dismastd/internal/tensor"
)

// ablationStream returns a dataset's last two paper-schedule snapshots
// (30 k nnz, seed 42) and a decomposition of the first — one 95%→100%
// stream step.
func ablationStream(b *testing.B, kind dataset.Kind) (*dtd.State, *tensor.Tensor) {
	b.Helper()
	t := dataset.Preset(kind, 30000, 42).Generate()
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

// BenchmarkAblationLossReuse compares the Section IV-B4 reuse-based
// loss with a naive second pass over the entries, reporting the total
// work units each spends.
func BenchmarkAblationLossReuse(b *testing.B) {
	prev, last := ablationStream(b, dataset.Netflix)
	for _, naive := range []bool{false, true} {
		name := "reuse"
		if naive {
			name = "naive"
		}
		b.Run(name, func(b *testing.B) {
			var work float64
			for i := 0; i < b.N; i++ {
				_, stats, err := Step(prev, last, Options{
					Rank: 10, MaxIters: 3, Tol: 0, Workers: 4, Method: partition.MTPMethod, Seed: 42, naiveLoss: naive,
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

// BenchmarkAblationRowExchange compares the subscription-based row
// exchange with a full owner broadcast, reporting measured traffic.
func BenchmarkAblationRowExchange(b *testing.B) {
	prev, last := ablationStream(b, dataset.Clothing)
	for _, broadcast := range []bool{false, true} {
		name := "subscriptions"
		if broadcast {
			name = "broadcast"
		}
		b.Run(name, func(b *testing.B) {
			var bytes int64
			for i := 0; i < b.N; i++ {
				_, stats, err := Step(prev, last, Options{
					Rank: 10, MaxIters: 3, Tol: 0, Workers: 8, Method: partition.MTPMethod, Seed: 42, broadcastRows: broadcast,
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
