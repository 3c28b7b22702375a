package dplan

import (
	"fmt"
	"testing"
	"testing/quick"

	"dismastd/internal/cluster"
	"dismastd/internal/mat"
	"dismastd/internal/partition"
	"dismastd/internal/tensor"
	"dismastd/internal/xrand"
)

func randomTensor(dims []int, nnz int, seed uint64) *tensor.Tensor {
	src := xrand.New(seed)
	b := tensor.NewBuilder(dims)
	idx := make([]int, len(dims))
	for e := 0; e < nnz; e++ {
		for m, d := range dims {
			idx[m] = src.Intn(d)
		}
		b.Append(idx, src.Float64()+0.1)
	}
	return b.Build()
}

func TestEntryListsPartitionEveryMode(t *testing.T) {
	x := randomTensor([]int{20, 15, 10}, 400, 1)
	for _, method := range []partition.Method{partition.GTPMethod, partition.MTPMethod} {
		p := Build(x, 4, 4, method)
		for m := 0; m < x.Order(); m++ {
			// Each entry appears exactly once across workers per mode.
			seen := make(map[int32]int)
			for w := 0; w < p.Workers; w++ {
				for _, e := range p.EntryLists[w][m] {
					seen[e]++
				}
			}
			if len(seen) != x.NNZ() {
				t.Fatalf("%v mode %d: %d of %d entries assigned", method, m, len(seen), x.NNZ())
			}
			for e, c := range seen {
				if c != 1 {
					t.Fatalf("%v mode %d: entry %d assigned %d times", method, m, e, c)
				}
			}
			// Entries sit with the owner of their mode-m slice.
			for w := 0; w < p.Workers; w++ {
				for _, e := range p.EntryLists[w][m] {
					slice := x.Coords[int(e)*x.Order()+m]
					if p.Owner[m][slice] != int32(w) {
						t.Fatalf("%v mode %d: entry %d on worker %d, owner %d", method, m, e, w, p.Owner[m][slice])
					}
				}
			}
		}
	}
}

func TestOwnedSlicesCoverEveryRow(t *testing.T) {
	x := randomTensor([]int{12, 9, 7}, 100, 2)
	p := Build(x, 3, 5, partition.MTPMethod)
	for m := 0; m < x.Order(); m++ {
		count := 0
		for w := 0; w < p.Workers; w++ {
			for _, s := range p.OwnedSlices[m][w] {
				if p.Owner[m][s] != int32(w) {
					t.Fatalf("slice %d listed under non-owner %d", s, w)
				}
				count++
			}
		}
		if count != x.Dims[m] {
			t.Fatalf("mode %d: %d of %d slices owned", m, count, x.Dims[m])
		}
	}
}

func TestNeedsCoverMTTKRPReads(t *testing.T) {
	x := randomTensor([]int{15, 12, 9}, 300, 3)
	p := Build(x, 4, 4, partition.GTPMethod)
	n := x.Order()
	for w := 0; w < p.Workers; w++ {
		available := make([]map[int32]bool, n)
		for m := 0; m < n; m++ {
			available[m] = make(map[int32]bool)
			for _, s := range p.OwnedSlices[m][w] {
				available[m][s] = true
			}
			for _, r := range p.Needs[m][w] {
				if available[m][r] {
					t.Fatalf("worker %d needs row %d of mode %d it already owns", w, r, m)
				}
				available[m][r] = true
			}
		}
		// Every factor row an MTTKRP of any mode reads must be available.
		for k := 0; k < n; k++ {
			for _, e := range p.EntryLists[w][k] {
				base := int(e) * n
				for m := 0; m < n; m++ {
					if m == k {
						continue
					}
					if !available[m][x.Coords[base+m]] {
						t.Fatalf("worker %d mode-%d MTTKRP reads unavailable row %d of mode %d", w, k, x.Coords[base+m], m)
					}
				}
			}
		}
	}
}

func TestSendListsMatchNeeds(t *testing.T) {
	x := randomTensor([]int{10, 10, 10}, 250, 4)
	p := Build(x, 3, 3, partition.MTPMethod)
	for m := 0; m < x.Order(); m++ {
		for s := 0; s < p.Workers; s++ {
			// Union of what every owner sends to s == Needs[m][s].
			got := make(map[int32]bool)
			for o := 0; o < p.Workers; o++ {
				for _, r := range p.SendLists[m][o][s] {
					if p.Owner[m][r] != int32(o) {
						t.Fatalf("owner %d sends row %d it does not own", o, r)
					}
					if got[r] {
						t.Fatalf("row %d sent to %d twice", r, s)
					}
					got[r] = true
				}
			}
			if len(got) != len(p.Needs[m][s]) {
				t.Fatalf("mode %d worker %d: send lists cover %d rows, needs %d", m, s, len(got), len(p.Needs[m][s]))
			}
			for _, r := range p.Needs[m][s] {
				if !got[r] {
					t.Fatalf("mode %d worker %d: needed row %d never sent", m, s, r)
				}
			}
		}
	}
}

func TestFewerPartsThanWorkersLeavesIdleWorkers(t *testing.T) {
	x := randomTensor([]int{10, 10, 10}, 100, 5)
	p := Build(x, 6, 2, partition.GTPMethod)
	if p.Parts != 2 {
		t.Fatalf("parts = %d, want 2", p.Parts)
	}
	// Only workers 0 and 1 can own anything.
	for m := range p.Owner {
		for _, o := range p.Owner[m] {
			if o > 1 {
				t.Fatalf("worker %d owns a slice with only 2 partitions", o)
			}
		}
	}
	if len(p.OwnedSlices[0][5]) != 0 {
		t.Fatal("worker 5 should be idle")
	}
	// Defaulted parts.
	if q := Build(x, 3, 0, partition.GTPMethod); q.Parts != 3 {
		t.Fatalf("parts = %d, want defaulted to 3", q.Parts)
	}
}

func TestFinerPartitionsRoundRobin(t *testing.T) {
	x := randomTensor([]int{40, 40, 40}, 2000, 6)
	p := Build(x, 4, 12, partition.MTPMethod)
	// All owners must be valid workers even with 12 partitions.
	for m := range p.Owner {
		for _, o := range p.Owner[m] {
			if o < 0 || int(o) >= 4 {
				t.Fatalf("owner %d out of range", o)
			}
		}
	}
}

func TestImbalanceAndSetupBytes(t *testing.T) {
	x := randomTensor([]int{30, 30, 30}, 3000, 7)
	p := Build(x, 5, 5, partition.MTPMethod)
	imb := p.Imbalance()
	if len(imb) != 3 {
		t.Fatalf("imbalance per mode: %v", imb)
	}
	for m, v := range imb {
		if v < 0 || v > 1 {
			t.Fatalf("mode %d imbalance %v implausible for near-uniform data", m, v)
		}
	}
	if p.SetupBytes(10) <= 0 {
		t.Fatal("setup bytes must be positive")
	}
}

func TestExchangeRowsDelivers(t *testing.T) {
	x := randomTensor([]int{16, 12, 8}, 300, 8)
	const workers = 4
	const r = 3
	p := Build(x, workers, workers, partition.MTPMethod)
	for _, broadcast := range []bool{false, true} {
		c := cluster.NewLocal(workers)
		_, err := c.Run(func(w *cluster.Worker) error {
			// Each worker starts with a replica where only its owned
			// rows carry the true values (row i filled with i+1 scaled
			// by column), everything else is poisoned with -1.
			mode := 0
			f := mat.New(x.Dims[mode], r)
			for i := range f.Data {
				f.Data[i] = -1
			}
			for _, s := range p.OwnedSlices[mode][w.Rank()] {
				row := f.Row(int(s))
				for c := range row {
					row[c] = float64(s+1) * float64(c+1)
				}
			}
			if err := ExchangeRows(w, p, mode, f, broadcast); err != nil {
				return err
			}
			// After the exchange every needed row must hold the truth.
			for _, need := range p.Needs[mode][w.Rank()] {
				row := f.Row(int(need))
				for c := range row {
					want := float64(need+1) * float64(c+1)
					if row[c] != want {
						return fmt.Errorf("worker %d row %d col %d = %v, want %v", w.Rank(), need, c, row[c], want)
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("broadcast=%v: %v", broadcast, err)
		}
	}
}

func TestExchangeRowsBroadcastCostsMore(t *testing.T) {
	x := randomTensor([]int{60, 50, 40}, 800, 9)
	const workers = 4
	p := Build(x, workers, workers, partition.MTPMethod)
	traffic := func(broadcast bool) int64 {
		c := cluster.NewLocal(workers)
		stats, err := c.Run(func(w *cluster.Worker) error {
			f := mat.New(x.Dims[0], 5)
			return ExchangeRows(w, p, 0, f, broadcast)
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats.TotalBytes()
	}
	sub := traffic(false)
	bc := traffic(true)
	if sub >= bc {
		t.Fatalf("subscription exchange (%d B) not cheaper than broadcast (%d B)", sub, bc)
	}
}

func TestBuildPanicsOnBadWorkers(t *testing.T) {
	x := randomTensor([]int{4, 4, 4}, 10, 10)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Build(x, 0, 1, partition.GTPMethod)
}

func TestPlanInvariantsQuick(t *testing.T) {
	// Property test over random tensors and cluster shapes: every plan
	// must satisfy the structural invariants the distributed step
	// depends on, for both partitioners.
	if err := quick.Check(func(seed uint16, rawWorkers, rawParts uint8, rawMethod bool) bool {
		src := xrand.New(uint64(seed) + 1)
		dims := []int{2 + src.Intn(20), 2 + src.Intn(20), 2 + src.Intn(20)}
		nnz := 1 + src.Intn(300)
		x := randomTensor(dims, nnz, uint64(seed)+1000)
		if x.NNZ() == 0 {
			return true
		}
		workers := 1 + int(rawWorkers%6)
		parts := int(rawParts % 12) // 0 defaults to workers
		method := partition.GTPMethod
		if rawMethod {
			method = partition.MTPMethod
		}
		p := Build(x, workers, parts, method)

		// Invariant 1: every entry appears exactly once per mode.
		for m := 0; m < x.Order(); m++ {
			count := 0
			for w := 0; w < workers; w++ {
				count += len(p.EntryLists[w][m])
			}
			if count != x.NNZ() {
				return false
			}
		}
		// Invariant 2: every slice has exactly one owner, and owned
		// slices partition the index space.
		for m := 0; m < x.Order(); m++ {
			total := 0
			for w := 0; w < workers; w++ {
				total += len(p.OwnedSlices[m][w])
			}
			if total != x.Dims[m] {
				return false
			}
		}
		// Invariant 3: send lists only contain rows the receiver needs
		// and the sender owns.
		for m := 0; m < x.Order(); m++ {
			for o := 0; o < workers; o++ {
				for s := 0; s < workers; s++ {
					for _, r := range p.SendLists[m][o][s] {
						if p.Owner[m][r] != int32(o) {
							return false
						}
					}
				}
			}
		}
		return true
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
