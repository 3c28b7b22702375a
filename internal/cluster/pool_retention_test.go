package cluster_test

import (
	"sync"
	"testing"

	"dismastd/internal/cluster"
	"dismastd/internal/dplan"
	"dismastd/internal/mat"
	"dismastd/internal/partition"
)

// TestTCPRowExchangePoolRetentionIsFlat: fifty broadcast row exchanges
// between two loopback nodes leave each node's buffer pool holding what
// it held after the fifth. Every received payload is handed to PutBuf
// by dplan.Exchange; its capacity is not a class size, so the pool used
// to file one more buffer per exchange that no get could ever ask for.
func TestTCPRowExchangePoolRetentionIsFlat(t *testing.T) {
	const workers, rank, rounds = 2, 5, 50
	x := chaosTensor([]int{700, 90, 12}, 1500, 3)
	plan := dplan.Build(x, workers, workers, partition.MTPMethod)
	nodes := startNodes(t, workers)

	retained := make([][]int64, workers) // [node][round]: pooled bytes after that round
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i, n := range nodes {
		wg.Add(1)
		go func(i int, n *cluster.TCPNode) {
			defer wg.Done()
			_, errs[i] = n.Run(func(w *cluster.Worker) error {
				factors := make([]*mat.Dense, x.Order())
				for m, d := range x.Dims {
					factors[m] = mat.New(d, rank)
				}
				exch := dplan.NewExchanger(w, plan)
				for round := 0; round < rounds; round++ {
					for m := range factors {
						if err := exch.Exchange(m, factors[m], true); err != nil {
							return err
						}
					}
					// Both nodes have sent and received this round's rows.
					if err := w.Barrier(); err != nil {
						return err
					}
					_, bytes := n.PoolRetained()
					retained[i] = append(retained[i], bytes)
				}
				return nil
			})
		}(i, n)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	for i := range retained {
		settled := retained[i][4]
		for round := 5; round < rounds; round++ {
			if retained[i][round] != settled {
				t.Fatalf("node %d: pool retains %d bytes after exchange round %d, %d after round 5 (%v)", i, retained[i][round], round+1, settled, retained[i])
			}
		}
	}
}
