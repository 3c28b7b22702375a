package cluster

import (
	"fmt"
	"testing"
	"time"
)

// Collective microbenchmarks. Beyond ns/op, each BenchmarkComm*
// benchmark reports maxrank-B/op: the heaviest rank's sent bytes per
// operation, the per-rank traffic Theorem 4 bounds. The binomial tree
// concentrates O(n·log M) of it at the root.

func benchComm(b *testing.B, m int, fn func(w *Worker) error) {
	c := NewLocal(m)
	c.SetRecvTimeout(time.Minute)
	b.ResetTimer()
	stats, err := c.Run(func(w *Worker) error {
		for i := 0; i < b.N; i++ {
			if err := fn(w); err != nil {
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
}

func BenchmarkCommAllReduce(b *testing.B) {
	for _, m := range []int{4, 8} {
		for _, kb := range []int{4, 64, 1024} {
			n := kb * 1024 / 8
			b.Run(fmt.Sprintf("M=%d/KB=%d", m, kb), func(b *testing.B) {
				b.SetBytes(int64(8 * n))
				vecs := make([][]float64, m)
				for r := range vecs {
					vecs[r] = make([]float64, n)
				}
				benchComm(b, m, func(w *Worker) error {
					return w.AllReduceSumInPlace(vecs[w.Rank()])
				})
			})
		}
	}
}

func BenchmarkCommScalarReduce(b *testing.B) {
	for _, m := range []int{4, 8} {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			benchComm(b, m, func(w *Worker) error {
				_, err := w.ReduceScalarSum(float64(w.Rank()))
				return err
			})
		})
	}
}

func BenchmarkCommBarrier(b *testing.B) {
	for _, m := range []int{4, 8} {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			benchComm(b, m, func(w *Worker) error {
				return w.Barrier()
			})
		})
	}
}
