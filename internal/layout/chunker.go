package layout

// Chunker memoises work-balanced chunk grids per chunk count, so a
// steady-state parallel sweep recomputes nothing no matter how many
// distinct thread counts drive the same kernel. Grids are pure
// functions of (cumulative weights, c) — nothing about scheduling
// feeds them — so caching cannot change results.
type Chunker struct {
	cs    []int
	grids [][]int32
}

// Grid returns a weight-balanced grid of at most c contiguous group
// ranges over groups 0..len(cum)-1, where cum[g] is the cumulative
// weight before group g (len(cum) = groups+1, cum[0] == 0): boundary i
// is the first group at or past i/c of the total weight. The returned
// slice has one more element than the number of chunks and must not be
// mutated. Grids are cached per c for the Chunker's lifetime.
func (ch *Chunker) Grid(c int, cum []int32) []int32 {
	g := len(cum) - 1
	if c > g {
		c = g
	}
	if c < 1 {
		c = 1
	}
	for i, cc := range ch.cs {
		if cc == c {
			return ch.grids[i]
		}
	}
	starts := make([]int32, 0, c+1)
	starts = append(starts, 0)
	total := int64(cum[g])
	gi := 0
	for i := 1; i < c; i++ {
		target := int32(total * int64(i) / int64(c))
		for gi < g && cum[gi] < target {
			gi++
		}
		starts = append(starts, int32(gi))
	}
	starts = append(starts, int32(g))
	ch.cs = append(ch.cs, c)
	ch.grids = append(ch.grids, starts)
	return starts
}
