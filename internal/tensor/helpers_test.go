package tensor

import "fmt"

// Test-only accessors: shipped code never looks up a single cell,
// compares two tensors or takes a sequence's delta.

// At returns the value at idx, or 0 when absent, by binary search over
// the sorted coordinates. Intended for tests and small tensors.
func (t *Tensor) At(idx []int) float64 {
	if len(idx) != t.Order() {
		panic(fmt.Sprintf("tensor: At with %d indices on order-%d tensor", len(idx), t.Order()))
	}
	n := t.Order()
	lo, hi := 0, t.NNZ()
	for lo < hi {
		mid := (lo + hi) / 2
		if compareCoords(t.Coords[mid*n:mid*n+n], idx) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < t.NNZ() && compareCoords(t.Coords[lo*n:lo*n+n], idx) == 0 {
		return t.Vals[lo]
	}
	return 0
}

func compareCoords(c []int32, idx []int) int {
	for m, v := range c {
		switch {
		case int(v) < idx[m]:
			return -1
		case int(v) > idx[m]:
			return 1
		}
	}
	return 0
}

// Equal reports whether two tensors have identical dims, coordinates,
// and values (exact float comparison; both sides must be Built so the
// coordinate order is canonical).
func Equal(a, b *Tensor) bool {
	if a.Order() != b.Order() || a.NNZ() != b.NNZ() {
		return false
	}
	for m := range a.Dims {
		if a.Dims[m] != b.Dims[m] {
			return false
		}
	}
	for i := range a.Coords {
		if a.Coords[i] != b.Coords[i] {
			return false
		}
	}
	for i := range a.Vals {
		if a.Vals[i] != b.Vals[i] {
			return false
		}
	}
	return true
}

// Delta returns the relative complement of snapshot i-1 in snapshot i,
// i.e. the new data that arrived at step i. For i == 0 it is the whole
// first snapshot (previous dims are all zero). The returned tensor has
// snapshot i's dims.
func (s *Sequence) Delta(i int) *Tensor {
	snap := s.Snapshot(i)
	if i == 0 {
		return snap
	}
	return snap.Complement(s.Steps[i-1])
}
