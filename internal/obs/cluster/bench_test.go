package obscluster

import (
	"fmt"
	"testing"
	"time"

	"dismastd/internal/cluster"
)

// BenchmarkObsFence measures one fence round of the observability plane
// — the overhead added to every stream step when the cluster plane is
// on. maxrank-B/op reports the coordinator-bound gather traffic per
// fence.
func BenchmarkObsFence(b *testing.B) {
	for _, m := range []int{2, 4, 8} {
		for _, spansPerStep := range []int{2, 16} {
			b.Run(fmt.Sprintf("M=%d/spans=%d", m, spansPerStep), func(b *testing.B) {
				c := cluster.NewLocal(m)
				c.SetRecvTimeout(time.Minute)
				members := identityMembers(m)
				loads := make([]float64, m)
				for i := range loads {
					loads[i] = 100
				}
				b.ResetTimer()
				stats, err := c.Run(func(w *cluster.Worker) error {
					p := NewPlane(Config{}, w.Obs(), w.Size())
					for i := 0; i < b.N; i++ {
						for s := 0; s < spansPerStep; s++ {
							span(w.Obs(), "mode0/mttkrp")
						}
						if _, err := p.Fence(w, members, 0, i, loads); err != nil {
							return err
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
