package dplan

import (
	"fmt"
	"testing"
	"time"

	"dismastd/internal/cluster"
	"dismastd/internal/mat"
	"dismastd/internal/partition"
)

// BenchmarkCommExchangeRows measures the subscription row exchange —
// the per-sweep point-to-point traffic between the collectives — on the
// Local transport. With the pooled buffer path this is allocation-free
// at steady state; -benchmem shows it.
func BenchmarkCommExchangeRows(b *testing.B) {
	for _, workers := range []int{4, 8} {
		for _, r := range []int{8, 32} {
			b.Run(fmt.Sprintf("M=%d/R=%d", workers, r), func(b *testing.B) {
				x := randomTensor([]int{600, 500, 400}, 40000, 7)
				p := Build(x, workers, workers, partition.GTPMethod)
				factors := make([]*mat.Dense, x.Order())
				for m, d := range x.Dims {
					factors[m] = mat.New(d, r)
				}
				c := cluster.NewLocal(workers)
				c.SetRecvTimeout(time.Minute)
				b.ResetTimer()
				stats, err := c.Run(func(w *cluster.Worker) error {
					exch := NewExchanger(w, p)
					locals := make([]*mat.Dense, x.Order())
					for m, d := range x.Dims {
						locals[m] = mat.New(d, r)
					}
					for i := 0; i < b.N; i++ {
						for m := 0; m < x.Order(); m++ {
							if err := exch.Exchange(m, locals[m], false); err != nil {
								return err
							}
						}
					}
					return nil
				})
				b.StopTimer()
				if err != nil {
					b.Fatal(err)
				}
				var maxSent int64
				for _, rk := range stats.Ranks {
					if rk.BytesSent > maxSent {
						maxSent = rk.BytesSent
					}
				}
				b.ReportMetric(float64(maxSent)/float64(b.N), "maxrank-B/op")
			})
		}
	}
}
