package cluster_test

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"dismastd/internal/cluster"
	"dismastd/internal/dplan"
	"dismastd/internal/mat"
	"dismastd/internal/partition"
)

// TestTCPRowExchangePoolRetentionIsFlat: fifty broadcast row exchanges
// between two loopback nodes never leave a node's buffer pool holding
// more than two buffers per exchanged size class — the one the node
// sends from and the one its read loop receives into. Every received
// payload is handed to PutBuf by dplan.Exchange, and the pool must
// recycle it rather than file one more buffer per exchange.
func TestTCPRowExchangePoolRetentionIsFlat(t *testing.T) {
	const workers, rank, rounds = 2, 5, 50
	x := chaosTensor([]int{700, 90, 12}, 1500, 3)
	plan := dplan.Build(x, workers, workers, partition.MTPMethod)
	nodes := startNodes(t, workers)

	retained := make([][]int, workers) // [node][round]: pooled buffers after that round
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
					// Both nodes have sent and received this round's rows,
					// and neither starts the next round's before the
					// reading is taken: a frame arriving would hold one of
					// the pool's buffers.
					if err := w.Barrier(); err != nil {
						return err
					}
					bufs, _ := n.PoolRetained()
					retained[i] = append(retained[i], bufs)
					if err := w.Barrier(); err != nil {
						return err
					}
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
	// Each rank owns 350, 45 and 6 rows of the three modes, so the row
	// blocks (14 KB, 1.8 KB, 240 B at rank 5) fall in three size classes.
	for i := range retained {
		for round, bufs := range retained[i] {
			if bufs > 2*x.Order() {
				t.Fatalf("node %d: pool retains %d buffers after exchange round %d (%v)", i, bufs, round+1, retained[i])
			}
		}
	}
}

// TestTCPExchangeAllocsFlatInRounds: once warm, a two-node row exchange
// over TCP allocates the same number of objects in 10 rounds as in 50 —
// none per message. Frames are read straight into pooled buffers that
// the exchange hands back, and tags are interned per connection. Both
// nodes live in this process, so the malloc count read between the
// lockstep windows covers senders, read loops and receivers alike.
//
// The runtime allocates a few objects of its own now and then — a
// sudog when a parked goroutine finds its processor's cache empty — so
// each length is measured five times and the fewest objects are
// compared. Each pool is stocked up front with the two buffers per
// class a node can have in flight, so a late first overlap of a send
// and a receive cannot look like a per-message allocation either.
func TestTCPExchangeAllocsFlatInRounds(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const workers, rank, reps = 2, 5, 5
	windows := []int{5} // warm-up, then alternating measured lengths
	for i := 0; i < reps; i++ {
		windows = append(windows, 10, 50)
	}
	x := chaosTensor([]int{700, 90, 12}, 1500, 3)
	plan := dplan.Build(x, workers, workers, partition.MTPMethod)
	nodes := startNodes(t, workers)

	done := make(chan struct{}, workers)
	next := make([]chan struct{}, len(windows))
	for i := range next {
		next[i] = make(chan struct{})
	}
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
				var stock [][]byte
				for m := range factors {
					for _, rows := range plan.OwnedSlices[m] {
						stock = append(stock, w.GetBuf(8*rank*len(rows)), w.GetBuf(8*rank*len(rows)))
					}
				}
				for _, b := range stock {
					w.PutBuf(b)
				}
				for k, rounds := range windows {
					for round := 0; round < rounds; round++ {
						for m := range factors {
							if err := exch.Exchange(m, factors[m], true); err != nil {
								done <- struct{}{}
								return err
							}
						}
					}
					done <- struct{}{}
					<-next[k]
				}
				return nil
			})
		}(i, n)
	}
	fewest := map[int]uint64{}
	var ms runtime.MemStats
	var last uint64
	for k, rounds := range windows {
		for range nodes {
			<-done
		}
		runtime.ReadMemStats(&ms)
		if n, seen := fewest[rounds]; k > 0 && (!seen || ms.Mallocs-last < n) {
			fewest[rounds] = ms.Mallocs - last
		}
		last = ms.Mallocs
		close(next[k])
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	if fewest[10] != fewest[50] {
		t.Fatalf("a warm TCP exchange allocates %d objects in 10 rounds and %d in 50", fewest[10], fewest[50])
	}
}

// TestGatherAndAllGather keeps its name from when the cluster package
// had a byte gather of its own; the gather the product uses,
// dplan.GatherOwnedRows, is what is left to check. Rank 0 ends with
// every rank's owned rows, the others with nil.
func TestGatherAndAllGather(t *testing.T) {
	const size, rows, r = 4, 10, 3
	owned := [][][]int32{make([][]int32, size)}
	for row := 0; row < rows; row++ {
		owned[0][row%size] = append(owned[0][row%size], int32(row))
	}
	val := func(row, c int) float64 { return float64(10*row + c + 1) }
	c := cluster.NewLocal(size)
	_, err := c.Run(func(w *cluster.Worker) error {
		f := mat.New(rows, r)
		for _, row := range owned[0][w.Rank()] {
			for c := 0; c < r; c++ {
				f.Set(int(row), c, val(int(row), c))
			}
		}
		full, err := dplan.GatherOwnedRows(w, owned, []*mat.Dense{f})
		if err != nil {
			return err
		}
		if w.Rank() != 0 {
			if full != nil {
				return fmt.Errorf("rank %d received the gather result", w.Rank())
			}
			return nil
		}
		for row := 0; row < rows; row++ {
			for c := 0; c < r; c++ {
				if got := full[0].At(row, c); got != val(row, c) {
					return fmt.Errorf("gathered [%d,%d] = %v, want %v", row, c, got, val(row, c))
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
