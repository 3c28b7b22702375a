package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"dismastd"
	"dismastd/internal/dataset"
	"dismastd/internal/tensor"
	"dismastd/internal/xrand"
)

// rank is the CP rank R every workload decomposes at.
const rank = 10

// streamInput is a generated multi-aspect stream: the paper's growth
// schedule (75 % … 100 % of every mode in 5 % steps) over one tensor.
type streamInput struct {
	full  *tensor.Tensor
	snaps []*tensor.Tensor // snaps[0] is the 75 % snapshot, snaps[5] == full
	hash  string
}

func scaled(n int, scale float64, floor int) int {
	v := int(math.Round(float64(n) * scale))
	if v < floor {
		v = floor
	}
	return v
}

// genStream draws the tensor for a stream workload from the seed and
// cuts the paper's snapshots out of it.
func genStream(kind dataset.Kind, nnz int, seed uint64) (*streamInput, error) {
	full := stratify(dataset.Preset(kind, nnz, seed).Generate())
	seq, err := dataset.Stream(full, dataset.PaperFractions)
	if err != nil {
		return nil, err
	}
	in := &streamInput{full: full, snaps: make([]*tensor.Tensor, seq.Len())}
	for i := range in.snaps {
		in.snaps[i] = seq.Snapshot(i)
	}
	in.hash = hashTensor(full)
	return in, nil
}

// growthSlabs is the number of equal index slabs per mode that the
// paper's schedule cuts along: 5 % steps.
const growthSlabs = 20

// stratify relabels every mode's indices so that each 5 % slab of the
// index range holds the same share of heavy and light slices: slices
// are ranked by weight and dealt back and forth over the slabs. The
// generator places its Zipf head by a random permutation; with a head
// as heavy as the presets' (the top slice of a mode holds 5–10 % of the
// entries) whether it falls before or after the 75 % cut swings a
// step's complement by tens of percent from seed to seed. Dealing the
// ranks out keeps the slice histogram — the skew the partitioners and
// kernels see — exactly, and makes the work per step a property of the
// preset instead of the seed's luck.
func stratify(t *tensor.Tensor) *tensor.Tensor {
	n := t.Order()
	relabel := make([][]int, n)
	for m := 0; m < n; m++ {
		d := t.Dims[m]
		w := t.SliceNNZ(m)
		byWeight := make([]int, d)
		for i := range byWeight {
			byWeight[i] = i
		}
		sort.SliceStable(byWeight, func(a, b int) bool { return w[byWeight[a]] > w[byWeight[b]] })
		next := make([]int, growthSlabs) // next free index of each slab
		end := make([]int, growthSlabs)
		for s := range next {
			next[s], end[s] = s*d/growthSlabs, (s+1)*d/growthSlabs
		}
		// Deal back and forth (0…19, 19…0, …) so no slab always draws
		// the heavier slice of a round.
		relabel[m] = make([]int, d)
		for r, old := range byWeight {
			s := r % growthSlabs
			if (r/growthSlabs)%2 == 1 {
				s = growthSlabs - 1 - s
			}
			for next[s] == end[s] { // slab sizes differ by one when 20 does not divide d
				s = (s + 1) % growthSlabs
			}
			relabel[m][old] = next[s]
			next[s]++
		}
	}
	b := tensor.NewBuilder(t.Dims)
	idx := make([]int, n)
	for e := 0; e < t.NNZ(); e++ {
		idx = t.Coord(e, idx)
		for m, c := range idx {
			idx[m] = relabel[m][c]
		}
		b.Append(idx, t.Val(e))
	}
	return b.Build()
}

func hashTensor(t *tensor.Tensor) string {
	h := fnv.New64a()
	var b [8]byte
	idx := make([]int, t.Order())
	for _, d := range t.Dims {
		binary.LittleEndian.PutUint64(b[:], uint64(d))
		h.Write(b[:])
	}
	for e := 0; e < t.NNZ(); e++ {
		idx = t.Coord(e, idx)
		for _, c := range idx {
			binary.LittleEndian.PutUint32(b[:4], uint32(c))
			h.Write(b[:4])
		}
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(t.Val(e)))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// eventGen draws the serving workloads' event stream: Zipf(1.1)
// coordinates in every mode, values 1–5, and on request an event one
// index past the end of mode 0 or 1 — the multi-aspect growth path.
// It is owned by the single writer, which is what makes the sequence,
// and therefore the server's sweep boundaries, deterministic.
type eventGen struct {
	src    *xrand.Source
	zipf   []*xrand.Zipf
	dims   []int // live mode sizes as the server will see them
	growAt int   // next mode to extend, alternating 0 and 1
	hash   uint64
}

func newEventGen(dims []int, seed uint64) *eventGen {
	g := &eventGen{src: xrand.New(seed), dims: append([]int(nil), dims...), hash: 14695981039346656037}
	for _, d := range dims {
		g.zipf = append(g.zipf, xrand.NewZipf(g.src.Split(), 1.1, d))
	}
	return g
}

func (g *eventGen) draw() dismastd.Event {
	coords := make([]int, len(g.dims))
	for m, z := range g.zipf {
		coords[m] = z.Draw()
	}
	return dismastd.Event{Coords: coords, Value: float64(1 + g.src.Intn(5))}
}

func (g *eventGen) event() dismastd.Event { return g.note(g.draw()) }

// growthEvent extends mode 0 or 1 (alternating) by exactly one index.
func (g *eventGen) growthEvent() dismastd.Event {
	ev := g.draw()
	m := g.growAt
	g.growAt = 1 - g.growAt
	ev.Coords[m] = g.dims[m]
	g.dims[m]++
	return g.note(ev)
}

// pin returns the event that fixes the model's mode sizes: the far
// corner of the initial dims.
func (g *eventGen) pin() dismastd.Event {
	coords := make([]int, len(g.dims))
	for m, d := range g.dims {
		coords[m] = d - 1
	}
	return g.note(dismastd.Event{Coords: coords, Value: 3})
}

func (g *eventGen) note(ev dismastd.Event) dismastd.Event {
	for _, c := range ev.Coords {
		g.hash = (g.hash ^ uint64(c)) * 1099511628211
	}
	g.hash = (g.hash ^ math.Float64bits(ev.Value)) * 1099511628211
	return ev
}

// batch draws n events; with grow set, the last one extends a mode.
func (g *eventGen) batch(n int, grow bool) []dismastd.Event {
	out := make([]dismastd.Event, n)
	for i := range out {
		if grow && i == n-1 {
			out[i] = g.growthEvent()
		} else {
			out[i] = g.event()
		}
	}
	return out
}

// eventsTensor accumulates events into a tensor at the given dims
// (duplicates sum, as the stream's pending region does).
func eventsTensor(dims []int, batches [][]dismastd.Event) *tensor.Tensor {
	b := tensor.NewBuilder(dims)
	for _, batch := range batches {
		for _, ev := range batch {
			b.Append(ev.Coords, ev.Value)
		}
	}
	return b.Build()
}
