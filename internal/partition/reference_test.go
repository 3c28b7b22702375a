package partition

import (
	"container/heap"
	"reflect"
	"sort"
	"testing"

	"dismastd/internal/xrand"
)

// referenceOrder is the placement order MTP used before heaviestFirst: every slice, empty ones included, sorted by descending
// nnz then ascending index.
func referenceOrder(slices []int64) []int {
	order := make([]int, len(slices))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(x, y int) bool {
		if slices[order[x]] != slices[order[y]] {
			return slices[order[x]] > slices[order[y]]
		}
		return order[x] < order[y]
	})
	return order
}

type partLoad struct {
	part  int
	load  int64
	count int // slices assigned so far
}

// loadHeap is a min-heap by load, then by slice count, then by part
// index: Algorithm 3's "lightest partition" as the heap MTP once ran
// on.
type loadHeap []partLoad

func (h loadHeap) Len() int { return len(h) }
func (h loadHeap) Less(i, j int) bool {
	if h[i].load != h[j].load {
		return h[i].load < h[j].load
	}
	if h[i].count != h[j].count {
		return h[i].count < h[j].count
	}
	return h[i].part < h[j].part
}
func (h loadHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *loadHeap) Push(x any)   { *h = append(*h, x.(partLoad)) }
func (h *loadHeap) Pop() any     { old := *h; x := old[len(old)-1]; *h = old[:len(old)-1]; return x }

// referenceMTP is Algorithm 3 over referenceOrder and a min-heap of
// partition loads: the implementation MTP replaced, kept as the oracle.
func referenceMTP(slices []int64, p int) *ModePlan {
	order := referenceOrder(slices)
	h := make(loadHeap, p)
	for i := range h {
		h[i] = partLoad{part: i}
	}
	heap.Init(&h)
	assign := make([]int32, len(slices))
	zeroFrom := len(order)
	for pos, i := range order {
		if slices[i] == 0 {
			zeroFrom = pos
			break
		}
		min := &h[0]
		assign[i] = int32(min.part)
		min.load += slices[i]
		min.count++
		heap.Fix(&h, 0)
	}
	counts := make([]int, p)
	for _, pl := range h {
		counts[pl.part] = pl.count
	}
	for _, i := range order[zeroFrom:] {
		min := 0
		for q := 1; q < p; q++ {
			if counts[q] < counts[min] {
				min = q
			}
		}
		assign[i] = int32(min)
		counts[min]++
	}
	return &ModePlan{Parts: p, Assign: assign, Loads: loadsFromAssign(slices, assign, p)}
}

// TestSortingOnlyLoadedSlicesChangesNoPlan pins MTP to the all-slices
// sort and the heap it replaced over histograms shaped like the ones
// that matter: mostly empty, heavily tied, every length down to 1.
func TestSortingOnlyLoadedSlicesChangesNoPlan(t *testing.T) {
	src := xrand.New(20251005)
	for trial := 0; trial < 500; trial++ {
		n := 1 + src.Intn(5000)
		if trial%10 == 0 {
			n = 1 + src.Intn(8) // the tiny lengths a uniform draw almost never hits
		}
		zeroPct := src.Intn(100)
		maxNNZ := 1 + src.Intn(4) // heavy ties
		if trial%3 == 0 {
			maxNNZ = 1 + src.Intn(1000)
		}
		slices := make([]int64, n)
		loaded := 0
		for i := range slices {
			if src.Intn(100) >= zeroPct {
				slices[i] = int64(1 + src.Intn(maxNNZ))
				loaded++
			}
		}
		p := 1 + src.Intn(40)

		got, want := MTP(slices, p), referenceMTP(slices, p)
		if !reflect.DeepEqual(got.Assign, want.Assign) || !reflect.DeepEqual(got.Loads, want.Loads) {
			t.Fatalf("trial %d (n=%d zeros=%d%% p=%d): MTP differs from the all-slices sort", trial, n, zeroPct, p)
		}
		if got.Sorted != loaded {
			t.Fatalf("trial %d: MTP sorted %d slices, %d carry load", trial, got.Sorted, loaded)
		}
	}
}
