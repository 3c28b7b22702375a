package dplan

import (
	"reflect"
	"sort"
	"testing"

	"dismastd/internal/partition"
	"dismastd/internal/xrand"
)

// referenceAssemble is the assemble the counting passes and the stamp
// arrays replaced — uncounted appends, one map per (worker, mode) —
// kept as the oracle. It fills a fresh Plan from p's mode plans.
func referenceAssemble(p *Plan) *Plan {
	ref := &Plan{Tensor: p.Tensor, Dims: p.Dims, Workers: p.Workers, Parts: p.Parts, ModePlans: p.ModePlans}
	n := len(ref.Dims)
	t := ref.Tensor
	ref.Owner = make([][]int32, n)
	for m := 0; m < n; m++ {
		owner := make([]int32, ref.Dims[m])
		for i, part := range ref.ModePlans[m].Assign {
			owner[i] = part % int32(ref.Workers)
		}
		ref.Owner[m] = owner
	}
	ref.EntryLists = make([][][]int32, ref.Workers)
	for w := range ref.EntryLists {
		ref.EntryLists[w] = make([][]int32, n)
	}
	for e := 0; e < t.NNZ(); e++ {
		base := e * n
		for m := 0; m < n; m++ {
			w := ref.Owner[m][t.Coords[base+m]]
			ref.EntryLists[w][m] = append(ref.EntryLists[w][m], int32(e))
		}
	}
	ref.OwnedSlices = make([][][]int32, n)
	for m := 0; m < n; m++ {
		ref.OwnedSlices[m] = make([][]int32, ref.Workers)
		for i, w := range ref.Owner[m] {
			ref.OwnedSlices[m][w] = append(ref.OwnedSlices[m][w], int32(i))
		}
	}
	ref.Needs = make([][][]int32, n)
	for m := 0; m < n; m++ {
		ref.Needs[m] = make([][]int32, ref.Workers)
	}
	for w := 0; w < ref.Workers; w++ {
		needed := make([]map[int32]struct{}, n)
		for m := range needed {
			needed[m] = make(map[int32]struct{})
		}
		for k := 0; k < n; k++ {
			for _, e := range ref.EntryLists[w][k] {
				base := int(e) * n
				for m := 0; m < n; m++ {
					if m != k {
						needed[m][t.Coords[base+m]] = struct{}{}
					}
				}
			}
		}
		for m := 0; m < n; m++ {
			rows := make([]int32, 0, len(needed[m]))
			for r := range needed[m] {
				if ref.Owner[m][r] != int32(w) {
					rows = append(rows, r)
				}
			}
			sort.Slice(rows, func(a, b int) bool { return rows[a] < rows[b] })
			ref.Needs[m][w] = rows
		}
	}
	ref.SendLists = make([][][][]int32, n)
	for m := 0; m < n; m++ {
		ref.SendLists[m] = make([][][]int32, ref.Workers)
		for o := 0; o < ref.Workers; o++ {
			ref.SendLists[m][o] = make([][]int32, ref.Workers)
		}
		for s := 0; s < ref.Workers; s++ {
			for _, r := range ref.Needs[m][s] {
				o := ref.Owner[m][r]
				ref.SendLists[m][o][s] = append(ref.SendLists[m][o][s], r)
			}
		}
	}
	return ref
}

// TestAssembleMatchesMapReference pins the plan tables to the map-based
// assembly, nil-versus-empty included: reflect.DeepEqual tells a nil
// list from an empty one, and callers do too (an Exchange skips a peer
// by len).
func TestAssembleMatchesMapReference(t *testing.T) {
	src := xrand.New(77)
	idle := 0 // plans in which some worker owns nothing in some mode
	for trial := 0; trial < 200; trial++ {
		order := 3 + src.Intn(2)
		dims := make([]int, order)
		for m := range dims {
			dims[m] = 1 + src.Intn(40)
		}
		x := randomTensor(dims, 1+src.Intn(400), uint64(trial)+500)
		workers := 1 + src.Intn(5)
		parts := src.Intn(2 * workers) // 0 defaults to workers; both sides of it occur
		var p *Plan
		switch trial % 3 {
		case 0:
			p = Build(x, workers, parts, partition.GTPMethod)
		case 1:
			p = Build(x, workers, parts, partition.MTPMethod)
		default:
			weights := make([]float64, workers)
			for w := range weights {
				weights[w] = 0.5 + 2*src.Float64()
			}
			p = BuildWeighted(x, workers, parts, partition.MTPMethod, weights)
		}
		ref := referenceAssemble(p)
		for _, f := range []struct {
			name      string
			got, want any
		}{
			{"Owner", p.Owner, ref.Owner},
			{"EntryLists", p.EntryLists, ref.EntryLists},
			{"OwnedSlices", p.OwnedSlices, ref.OwnedSlices},
			{"Needs", p.Needs, ref.Needs},
			{"SendLists", p.SendLists, ref.SendLists},
		} {
			if !reflect.DeepEqual(f.got, f.want) {
				t.Fatalf("trial %d (dims %v, workers %d, parts %d): %s differs from the map-based assembly", trial, dims, workers, parts, f.name)
			}
		}
		for m := range p.OwnedSlices {
			for w := range p.OwnedSlices[m] {
				if p.OwnedSlices[m][w] == nil {
					idle++
				}
			}
		}
	}
	if idle == 0 {
		t.Fatal("no trial left a worker without a row in some mode; the nil cases went untested")
	}
}
