package mat

import "testing"

// InUse reports the number of positions currently checked out.
func (w *Workspace) InUse() int { return w.n }

// Floats reports the total float64 capacity cached across all slabs —
// the arena's steady-state memory footprint.
func (w *Workspace) Floats() int {
	total := 0
	for _, s := range w.slabs {
		total += cap(s)
	}
	return total
}

func TestWorkspaceTakeIsZeroedAndShaped(t *testing.T) {
	ws := NewWorkspace()
	m := ws.Take(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("Take(3,4) returned %dx%d with %d floats", m.Rows, m.Cols, len(m.Data))
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("Take returned dirty buffer: element %d is %v", i, v)
		}
	}
	// Dirty it, recycle, and check the next checkout is clean again.
	for i := range m.Data {
		m.Data[i] = 7
	}
	ws.Reset()
	m2 := ws.Take(3, 4)
	for i, v := range m2.Data {
		if v != 0 {
			t.Fatalf("recycled buffer not re-zeroed: element %d is %v", i, v)
		}
	}
}

func TestWorkspacePositionalReuse(t *testing.T) {
	ws := NewWorkspace()
	a := ws.Take(4, 4)
	ws.Reset()
	b := ws.Take(4, 4)
	if &a.Data[0] != &b.Data[0] {
		t.Fatal("same-position same-size Take did not reuse the cached slab")
	}
	if a != b {
		t.Fatal("same-position Take did not reuse the pooled header")
	}
	// A larger request at the same position grows the slab once, and a
	// later smaller request still reuses the grown slab.
	ws.Reset()
	big := ws.Take(8, 8)
	grown := ws.Floats()
	if grown < 64 {
		t.Fatalf("slab did not grow: %d floats cached", grown)
	}
	ws.Reset()
	small := ws.Take(2, 2)
	if ws.Floats() != grown {
		t.Fatalf("small Take after growth changed capacity: %d -> %d", grown, ws.Floats())
	}
	if &big.Data[0] != &small.Data[0] {
		t.Fatal("small Take after growth did not reuse the grown slab")
	}
}

func TestWorkspaceMarkRelease(t *testing.T) {
	ws := NewWorkspace()
	outer := ws.Take(2, 2)
	outer.Set(0, 0, 42)
	mark := ws.Mark()
	ws.Take(3, 3)
	ws.Take(1, 5)
	if ws.InUse() != 3 {
		t.Fatalf("InUse = %d, want 3", ws.InUse())
	}
	ws.Release(mark)
	if ws.InUse() != 1 {
		t.Fatalf("InUse after Release = %d, want 1", ws.InUse())
	}
	if outer.At(0, 0) != 42 {
		t.Fatal("Release disturbed a checkout made before the mark")
	}
	// The next Take reuses the released position.
	again := ws.Take(3, 3)
	if ws.InUse() != 2 {
		t.Fatalf("InUse after re-Take = %d, want 2", ws.InUse())
	}
	if again.At(0, 0) != 0 {
		t.Fatal("re-taken position not zeroed")
	}
}

func TestWorkspaceReleaseOutOfRangePanics(t *testing.T) {
	ws := NewWorkspace()
	ws.Take(2, 2)
	mustPanic(t, "Release past checkout position", func() { ws.Release(5) })
	mustPanic(t, "negative Release", func() { ws.Release(-1) })
	mustPanic(t, "negative Take", func() { ws.Take(-1, 3) })
}

func TestWorkspaceTakeVec(t *testing.T) {
	ws := NewWorkspace()
	v := ws.TakeVec(6)
	if len(v) != 6 {
		t.Fatalf("TakeVec(6) returned %d floats", len(v))
	}
	for i := range v {
		if v[i] != 0 {
			t.Fatal("TakeVec returned dirty buffer")
		}
	}
	if ws.InUse() != 1 {
		t.Fatalf("TakeVec consumed %d positions, want 1", ws.InUse())
	}
}

func TestWorkspaceSteadyStateAllocFree(t *testing.T) {
	ws := NewWorkspace()
	pass := func() {
		mark := ws.Mark()
		a := ws.Take(6, 6)
		b := ws.Take(6, 6)
		v := ws.TakeVec(6)
		a.Set(0, 0, 1)
		b.Set(0, 0, 2)
		v[0] = 3
		ws.Release(mark)
	}
	pass() // warm-up grows the slabs
	if allocs := testing.AllocsPerRun(100, pass); allocs != 0 {
		t.Fatalf("steady-state workspace pass allocates %v times, want 0", allocs)
	}
}
