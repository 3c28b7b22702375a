package dplan

import (
	"fmt"
	"testing"

	"dismastd/internal/cluster"
	"dismastd/internal/mat"
	"dismastd/internal/partition"
)

// TestRebuildShrinkAbsorbsDeadRows: when a rank dies, survivors keep
// every slice they had (zero moved rows between survivors) and the
// dead rank's rows are absorbed locally, never shipped.
func TestRebuildShrinkAbsorbsDeadRows(t *testing.T) {
	x := randomTensor([]int{24, 18, 14}, 600, 3)
	old := Build(x, 3, 3, partition.MTPMethod)
	oldView := cluster.InitialView(3)
	newView := cluster.ViewChange{Dead: []int{1}}.Apply(oldView)
	next, err := RebuildRebalanced(old, oldView, newView)
	if err != nil {
		t.Fatal(err)
	}
	if next.Workers != 2 || next.Parts != 2 {
		t.Fatalf("rebuilt plan for %d workers / %d parts", next.Workers, next.Parts)
	}
	d := ComputeDelta(old, oldView, next, newView)
	if got := d.MovedRows(); got != 0 {
		t.Fatalf("shrink moved %d rows between survivors, want 0", got)
	}
	// Every row the dead rank owned — and only those — is absorbed by
	// its new owner.
	for m := range next.Dims {
		absorbed := map[int32]bool{}
		for nr, rows := range d.Absorbed[m] {
			for _, row := range rows {
				if next.Owner[m][row] != int32(nr) {
					t.Fatalf("mode %d row %d absorbed by %d, owner %d", m, row, nr, next.Owner[m][row])
				}
				absorbed[row] = true
			}
		}
		for row := 0; row < old.Dims[m]; row++ {
			wasDead := old.Owner[m][row] == 1
			if wasDead != absorbed[int32(row)] {
				t.Fatalf("mode %d row %d: dead-owned %v, absorbed %v", m, row, wasDead, absorbed[int32(row)])
			}
		}
	}
	// The rebuilt plan keeps the full-coverage invariants: every entry
	// assigned exactly once per mode.
	for m := 0; m < x.Order(); m++ {
		total := 0
		for w := 0; w < next.Workers; w++ {
			total += len(next.EntryLists[w][m])
		}
		if total != x.NNZ() {
			t.Fatalf("mode %d: %d of %d entries assigned", m, total, x.NNZ())
		}
	}
}

// TestRebuildGrowMovesOnlyToJoiner: admitting a fresh rank moves rows
// exclusively from survivors to the joiner, and nothing is absorbed.
func TestRebuildGrowMovesOnlyToJoiner(t *testing.T) {
	x := randomTensor([]int{30, 22, 16}, 900, 5)
	old := Build(x, 2, 2, partition.MTPMethod)
	oldView := cluster.InitialView(2)
	newView := cluster.ViewChange{Join: []int{2}}.Apply(oldView)
	next, err := RebuildRebalanced(old, oldView, newView)
	if err != nil {
		t.Fatal(err)
	}
	d := ComputeDelta(old, oldView, next, newView)
	if got := d.AbsorbedRows(); got != 0 {
		t.Fatalf("grow absorbed %d rows, want 0", got)
	}
	joiner := newView.RankOf(2)
	moved := 0
	for m, flows := range d.Moved {
		for _, f := range flows {
			if f.To != joiner {
				t.Fatalf("mode %d: flow %d -> %d not feeding the joiner", m, f.From, f.To)
			}
			moved += len(f.Rows)
		}
	}
	if moved == 0 {
		t.Fatal("joiner received no rows")
	}
	total := 0
	for _, dim := range old.Dims {
		total += dim
	}
	if moved > total/2 {
		t.Fatalf("moved %d of %d rows to feed one joiner", moved, total)
	}
}

// TestMigrateDeliversWarmRows runs the migration over the in-process
// transport on a grow view change: each old owner stamps its rows with
// recognisable values, Migrate ships exactly the moved rows, and the
// joiner ends up with the senders' warm values while the metrics
// account every migrated row on the sending side.
func TestMigrateDeliversWarmRows(t *testing.T) {
	x := randomTensor([]int{20, 16, 12}, 500, 7)
	const r = 4
	old := Build(x, 2, 2, partition.MTPMethod)
	oldView := cluster.InitialView(2)
	newView := cluster.ViewChange{Join: []int{2}}.Apply(oldView)
	next, err := RebuildRebalanced(old, oldView, newView)
	if err != nil {
		t.Fatal(err)
	}
	d := ComputeDelta(old, oldView, next, newView)
	if d.MovedRows() == 0 {
		t.Fatal("degenerate case: nothing to migrate")
	}
	truth := func(m, row, col int) float64 {
		return float64(m+1)*1000 + float64(row)*10 + float64(col)
	}
	c := cluster.NewLocal(newView.Size())
	stats, err := c.Run(func(w *cluster.Worker) error {
		// World ranks equal view ranks here, so a plain local worker
		// stands in for the view worker.
		factors := make([]*mat.Dense, x.Order())
		for m := range factors {
			factors[m] = mat.New(x.Dims[m], r)
			for i := range factors[m].Data {
				factors[m].Data[i] = -1
			}
			// Old owners hold the warm values; the joiner holds none.
			if w.Rank() < old.Workers {
				for _, s := range old.OwnedSlices[m][w.Rank()] {
					row := factors[m].Row(int(s))
					for col := range row {
						row[col] = truth(m, int(s), col)
					}
				}
			}
		}
		if err := Migrate(w, d, factors); err != nil {
			return err
		}
		for m, flows := range d.Moved {
			for _, f := range flows {
				if f.To != w.Rank() {
					continue
				}
				for _, row := range f.Rows {
					vals := factors[m].Row(int(row))
					for col, v := range vals {
						if want := truth(m, int(row), col); v != want {
							return fmt.Errorf("rank %d mode %d row %d col %d = %v, want %v", w.Rank(), m, row, col, v, want)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Exactly the moved rows crossed the wire: each flow is one message
	// of 8·r·rows payload plus the tag/envelope accounting overhead.
	wantBytes := int64(0)
	for m, flows := range d.Moved {
		for _, f := range flows {
			wantBytes += int64(8*r*len(f.Rows)) + int64(len(fmt.Sprintf("mig/%d", m))) + 8
		}
	}
	if got := stats.TotalBytes(); got != wantBytes {
		t.Fatalf("migration moved %d bytes, want %d", got, wantBytes)
	}
	moved := int64(0)
	for _, rs := range stats.Ranks {
		moved += rs.Obs.Metrics.Counters["elastic.migrate.rows"]
	}
	if moved != int64(d.MovedRows()) {
		t.Fatalf("metrics counted %d migrated rows, delta says %d", moved, d.MovedRows())
	}
}
