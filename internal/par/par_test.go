package par

import (
	"sync/atomic"
	"testing"
)

// markBody records which index ran in which chunk/tid; writes are
// racy-free because chunks are disjoint.
type markBody struct {
	tids  []int32
	count atomic.Int64
}

func (b *markBody) RunChunk(lo, hi, tid int) {
	for i := lo; i < hi; i++ {
		b.tids[i] = int32(tid + 1)
	}
	b.count.Add(1)
}

func TestForCoversEveryIndexOnce(t *testing.T) {
	for _, threads := range []int{1, 2, 3, 8} {
		p := New(threads)
		for _, n := range []int{0, 1, 2, 3, 7, 8, 9, 100, 1001} {
			b := &markBody{tids: make([]int32, n)}
			p.For(n, b)
			for i, tid := range b.tids {
				if tid == 0 {
					t.Fatalf("threads=%d n=%d: index %d never ran", threads, n, i)
				}
			}
			if int(b.count.Load()) > threads {
				t.Fatalf("threads=%d n=%d: %d chunks ran, want <= %d", threads, n, b.count.Load(), threads)
			}
			// Chunks are contiguous and tid-ordered: tids must be
			// non-decreasing across the range.
			for i := 1; i < n; i++ {
				if b.tids[i] < b.tids[i-1] {
					t.Fatalf("threads=%d n=%d: tid order broken at %d: %v", threads, n, i, b.tids[:i+1])
				}
			}
		}
		p.Close()
	}
}

func TestForChunksRespectsGrid(t *testing.T) {
	p := New(4)
	defer p.Close()
	b := &markBody{tids: make([]int32, 10)}
	// Unbalanced grid: chunk sizes 1, 0, 6, 3.
	p.ForChunks([]int32{0, 1, 1, 7, 10}, b)
	want := []int32{1, 3, 3, 3, 3, 3, 3, 4, 4, 4}
	for i := range want {
		if b.tids[i] != want[i] {
			t.Fatalf("index %d ran as tid %d, want %d (%v)", i, b.tids[i]-1, want[i]-1, b.tids)
		}
	}
	if got := b.count.Load(); got != 3 {
		t.Fatalf("%d chunks ran, want 3 (the empty chunk 1 is skipped)", got)
	}
}

func TestNilPoolIsSequential(t *testing.T) {
	var p *Pool
	if p.Threads() != 1 {
		t.Fatalf("nil pool Threads = %d", p.Threads())
	}
	b := &markBody{tids: make([]int32, 5)}
	p.For(5, b)
	for i, tid := range b.tids {
		if tid != 1 {
			t.Fatalf("index %d ran as tid %d, want 0", i, tid-1)
		}
	}
	if b.count.Load() != 1 {
		t.Fatalf("nil pool split the range into %d chunks", b.count.Load())
	}
	p.Close() // no-op
}

// TestForSteadyStateAllocFree pins the runtime's zero-alloc dispatch:
// once the pool and the Body are warm, a parallel region allocates
// nothing — chunks travel as value structs over pre-allocated lanes.
func TestForSteadyStateAllocFree(t *testing.T) {
	p := New(4)
	defer p.Close()
	b := &markBody{tids: make([]int32, 4096)}
	p.For(len(b.tids), b)
	if allocs := testing.AllocsPerRun(20, func() {
		p.For(len(b.tids), b)
	}); allocs != 0 {
		t.Fatalf("steady-state For allocates %v times, want 0", allocs)
	}
}

// Func adapts an ordinary function to Body.
type Func func(lo, hi, tid int)

func (f Func) RunChunk(lo, hi, tid int) { f(lo, hi, tid) }

// TestForManyRegions stresses dispatch/join across many back-to-back
// regions so `make race` exercises the lane handoff protocol.
func TestForManyRegions(t *testing.T) {
	p := New(8)
	defer p.Close()
	xs := make([]float64, 10000)
	b := Func(func(lo, hi, tid int) {
		for i := lo; i < hi; i++ {
			xs[i]++
		}
	})
	const rounds = 500
	for r := 0; r < rounds; r++ {
		p.For(len(xs), b)
	}
	for i, v := range xs {
		if v != rounds {
			t.Fatalf("xs[%d] = %v after %d rounds", i, v, rounds)
		}
	}
}
