package dtd

import (
	"fmt"
	"math"
	"testing"

	"dismastd/internal/mat"
)

// The tests in this file pin the two shortcuts a binding takes around
// its sweeps to the code they replaced: the cold quiet pass (G̃q
// computed once and copied) against the three-sum walk, which survives
// as the warm path, and the upper-triangle Gram partials against the
// full products of mat.CrossGramInto.

func cloneAll(fs []*mat.Dense) []*mat.Dense {
	out := make([]*mat.Dense, len(fs))
	for m, f := range fs {
		out[m] = f.Clone()
	}
	return out
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func requireSameEngineBits(t *testing.T, what string, got, want *Sweep) {
	t.Helper()
	for m := range want.full {
		if !sameBits(got.full[m].Data, want.full[m].Data) {
			t.Fatalf("%s: factor %d differs", what, m)
		}
	}
	if !sameBits(got.trace, want.trace) {
		t.Fatalf("%s: loss trace %v vs %v", what, got.trace, want.trace)
	}
	if got.work != want.work {
		t.Fatalf("%s: Work %v vs %v", what, got.work, want.work)
	}
}

// TestColdQuietPassMatchesThreeSums: an engine bound from nil and one
// bound from an explicit copy of the same stack produce the same quiet
// Gram share, factors, loss trace and Work, bit for bit — and cold ends
// with the first Run: a second Run, or a rebind from the factors the
// first left, equals a fresh warm engine given those factors, which a
// Run that still believed its old rows held Ã would not.
func TestColdQuietPassMatchesThreeSums(t *testing.T) {
	for _, order := range []int{3, 4} {
		prev, snap := bookStep(t, order)
		for _, threads := range []int{1, 3} {
			name := fmt.Sprintf("order=%d/threads=%d", order, threads)
			s, err := NewSweep(prev, snap, Options{Rank: 4, MaxIters: 4, Tol: 1e-300, Mu: 0.8, Seed: 5, Threads: threads})
			if err != nil {
				t.Fatal(err)
			}
			cold, warm := bindWorld(s, nil, nil, false), bindWorld(s, s.stack(), nil, false)
			defer cold.Close()
			defer warm.Close()
			if !cold.cold || warm.cold {
				t.Fatalf("%s: cold=%v for nil factors, %v for explicit ones", name, cold.cold, warm.cold)
			}
			quietOld := 0
			for m := range cold.quiet {
				cold.quietPass(m)
				warm.quietPass(m)
				cq, wq := &cold.quiet[m], &warm.quiet[m]
				quietOld += len(cq.old)
				if !cq.any() {
					continue
				}
				if !sameBits(cq.part, wq.part) || !sameBits(cq.gq.Data, wq.gq.Data) {
					t.Fatalf("%s: mode %d quiet share differs between the cold and the three-sum walk", name, m)
				}
			}
			if quietOld == 0 {
				t.Fatalf("%s: no quiet old row; the input no longer tests the cold pass", name)
			}
			if err := cold.Run(nil); err != nil {
				t.Fatal(err)
			}
			if err := warm.Run(nil); err != nil {
				t.Fatal(err)
			}
			requireSameEngineBits(t, name+": cold vs warm first Run", cold, warm)
			if cold.cold {
				t.Fatalf("%s: still cold after Run", name)
			}

			// Second Run on the same engine, and a rebind from its factors,
			// against a fresh engine given a copy of those factors.
			after := cloneAll(cold.full)
			fresh := bindWorld(s, cloneAll(after), nil, false)
			_, owned := worldBinding(s)
			rebound := s.Bind(after, cold.kernels, owned, nil, nil, nil)
			defer fresh.Close()
			defer rebound.Close()
			for _, e := range []*Sweep{cold, fresh, rebound} {
				if err := e.Run(nil); err != nil {
					t.Fatal(err)
				}
			}
			// Work accumulates since Bind; compare the second Run's alone.
			cold.work -= warm.work
			requireSameEngineBits(t, name+": second Run vs fresh warm engine", cold, fresh)
			requireSameEngineBits(t, name+": warm rebind vs fresh warm engine", rebound, fresh)

			// Teeth: the fixture tells the two paths apart — a warm engine
			// made to believe it is cold gets a different quiet share.
			liar := bindWorld(s, cloneAll(fresh.full), nil, false)
			defer liar.Close()
			honest := bindWorld(s, cloneAll(fresh.full), nil, false)
			defer honest.Close()
			liar.cold = true
			differs := false
			for m := range liar.quiet {
				liar.quietPass(m)
				honest.quietPass(m)
				if liar.quiet[m].any() && !sameBits(liar.quiet[m].part, honest.quiet[m].part) {
					differs = true
				}
			}
			if !differs {
				t.Fatalf("%s: a cold walk over warm factors went unnoticed", name)
			}
		}
	}
}

// TestUpperTriangleGramPartialsBitEqual: the chunked Gram partials —
// symmetric blocks accumulated as upper triangles and mirrored after the
// barrier — equal mat.CrossGramInto over the same rows bit for bit, at
// thread counts that do not divide the rank, on factors seeded with
// exact zeros and negative zeros.
func TestUpperTriangleGramPartialsBitEqual(t *testing.T) {
	const rank = 10
	prev, snap := bookStepRank(t, 3, rank)
	for _, threads := range []int{1, 2, 3, 7} {
		s, err := NewSweep(prev, snap, Options{Rank: rank, MaxIters: 1, Seed: 5, Threads: threads})
		if err != nil {
			t.Fatal(err)
		}
		for _, quietSplit := range []bool{false, true} {
			name := fmt.Sprintf("threads=%d/quiet=%v", threads, quietSplit)
			factors := s.stack()
			for m, f := range factors {
				for i := range f.Data {
					switch (i*7 + m) % 11 {
					case 0:
						f.Data[i] = 0
					case 1:
						f.Data[i] = math.Copysign(0, -1)
					case 2:
						f.Data[i] = -f.Data[i]
					}
				}
			}
			e := bindWorld(s, factors, nil, !quietSplit)
			defer e.Close()
			for m := range e.full {
				e.quietPass(m)
				if err := e.reduceGrams(m); err != nil {
					t.Fatal(err)
				}
				old := e.prev.Dims[m]
				a0 := e.full[m].SliceRows(0, old)
				a1 := e.full[m].SliceRows(old, e.full[m].Rows)
				want0, want1, wantX := mat.New(rank, rank), mat.New(rank, rank), mat.New(rank, rank)
				if quietSplit {
					// Live rows first, then the quiet share added: the order
					// reduceGrams sums in.
					q := &e.quiet[m]
					gatherGram(want0, e.full[m], e.full[m], e.liveOld[m])
					gatherGram(want1, e.full[m], e.full[m], e.liveNew[m])
					gatherGram(wantX, e.prev.Factors[m], e.full[m], e.liveOld[m])
					q0, q1, qx, qq := mat.New(rank, rank), mat.New(rank, rank), mat.New(rank, rank), mat.New(rank, rank)
					gatherGram(q0, e.full[m], e.full[m], q.old)
					gatherGram(q1, e.full[m], e.full[m], q.grown)
					gatherGram(qx, e.prev.Factors[m], e.full[m], q.old)
					gatherGram(qq, e.prev.Factors[m], e.prev.Factors[m], q.old)
					if q.any() && !sameBits(q.gq.Data, qq.Data) {
						t.Fatalf("%s: mode %d G̃q differs from the full product", name, m)
					}
					want0.Add(want0, q0)
					want1.Add(want1, q1)
					wantX.Add(wantX, qx)
				} else {
					mat.CrossGramInto(want0, a0, a0)
					mat.CrossGramInto(want1, a1, a1)
					mat.CrossGramInto(wantX, e.prev.Factors[m], a0)
				}
				for _, blk := range []struct {
					what      string
					got, want *mat.Dense
				}{{"A⁰ᵀA⁰", e.gram0[m], want0}, {"A¹ᵀA¹", e.gram1[m], want1}, {"ÃᵀA⁰", e.cross[m], wantX}} {
					if !sameBits(blk.got.Data, blk.want.Data) {
						t.Fatalf("%s: mode %d %s differs from the full product", name, m, blk.what)
					}
				}
			}
		}
	}
}

// gatherGram sets dst = Σ_{s in rows} a[s]ᵀ·b[s] by mat.CrossGramInto
// over the gathered rows — the full, unmirrored product in row order.
func gatherGram(dst, a, b *mat.Dense, rows []int32) {
	ga, gb := mat.New(len(rows), a.Cols), mat.New(len(rows), b.Cols)
	for i, s := range rows {
		copy(ga.Row(i), a.Row(int(s)))
		copy(gb.Row(i), b.Row(int(s)))
	}
	mat.CrossGramInto(dst, ga, gb)
}
