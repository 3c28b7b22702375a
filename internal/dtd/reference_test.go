package dtd

import (
	"fmt"
	"math"
	"testing"

	"dismastd/internal/mat"
	"dismastd/internal/tensor"
	"dismastd/internal/xrand"
)

// The tests in this file pin the column-major live block to the code it
// replaced. refUpdateOwnedRows and refGramPartials are the row-major
// live-row solve and Gram partials as they stood before the block —
// gathered Ã rows times Hprod with MulInto's zero-skips, one
// SolveRightRidgeInto per block, outer products accumulated in memory —
// and refRun drives an engine with them in place of updateOwnedRows and
// gramTask, never touching its blocks. Everything else (MTTKRP,
// denominators, quiet pass, loss, write-out) is the engine's own.

// refUpdateOwnedRows is the row-major Eq. (5) update of the live rows.
func refUpdateOwnedRows(e *Sweep, mode int) {
	factor := e.full[mode]
	M := e.mbuf[mode]
	tilde := e.prev.Factors[mode]
	r := factor.Cols
	oldRows, newRows := e.liveOld[mode], e.liveNew[mode]
	q := &e.quiet[mode]
	nT := 0
	if len(q.old) > 0 {
		nT = r
	}
	ws := mat.NewWorkspace()
	factored := 0
	if nOld := len(oldRows); nOld+nT > 0 {
		factored++
		tblock := mat.New(nOld+nT, r)
		for i, s := range oldRows {
			copy(tblock.Row(i), tilde.Row(int(s)))
		}
		for i := 0; i < nT; i++ {
			tblock.Set(nOld+i, i, 1)
		}
		num := mat.New(nOld+nT, r)
		mat.MulInto(num, tblock, e.hprod)
		num.Scale(e.opts.Mu, num)
		for i, s := range oldRows {
			row := num.Row(i)
			src := M.Row(int(s))
			for c := range row {
				row[c] += src[c]
			}
		}
		mat.SolveRightRidgeInto(num, num, e.d0, ws)
		for i, s := range oldRows {
			copy(factor.Row(int(s)), num.Row(i))
		}
		if nT > 0 {
			copy(q.t.Data, num.Data[nOld*r:])
			mat.MulRowsInto(q.cross, q.gq, q.t, 0, r)
			q.g0.Zero()
			mat.AccumulateCrossGramRows(q.g0, q.t, q.cross, 0, r)
		}
	}
	if len(newRows) > 0 {
		factored++
		num := mat.New(len(newRows), r)
		for i, s := range newRows {
			copy(num.Row(i), M.Row(int(s)))
		}
		mat.SolveRightRidgeInto(num, num, e.d1, ws)
		for i, s := range newRows {
			copy(factor.Row(int(s)), num.Row(i))
		}
	}
	if q.any() && !q.implicit {
		for _, s := range q.grown {
			zeroRow(factor.Row(int(s)))
		}
		q.g1.Zero()
		q.implicit = true
	}
	rr := float64(r) * float64(r)
	e.work += (2*float64(len(oldRows)+nT)+float64(len(newRows)))*rr + float64(factored)*float64(r)*rr + 2*float64(nT)*rr
}

// refGramPartials is the row-major outer-product loop over the live rows
// of the replica, upper triangles mirrored, zero-skips and all.
func refGramPartials(e *Sweep, mode int) {
	factor := e.full[mode]
	tilde := e.prev.Factors[mode]
	g0, g1, cross := e.gram0[mode], e.gram1[mode], e.cross[mode]
	g0.Zero()
	g1.Zero()
	cross.Zero()
	for _, s := range e.liveOld[mode] {
		row := factor.Row(int(s))
		trow := tilde.Row(int(s))
		for i := range row {
			if av := row[i]; av != 0 {
				drow := g0.Row(i)[i:]
				for c, bv := range row[i:] {
					drow[c] += av * bv
				}
			}
			if tv := trow[i]; tv != 0 {
				drow := cross.Row(i)
				for c, bv := range row {
					drow[c] += tv * bv
				}
			}
		}
	}
	for _, s := range e.liveNew[mode] {
		row := factor.Row(int(s))
		for i, av := range row {
			if av == 0 {
				continue
			}
			drow := g1.Row(i)[i:]
			for c, bv := range row[i:] {
				drow[c] += av * bv
			}
		}
	}
	mat.MirrorUpper(g0)
	mat.MirrorUpper(g1)
}

// refReduceGrams is reduceGrams around refGramPartials.
func refReduceGrams(e *Sweep, mode int) error {
	refGramPartials(e, mode)
	if q := &e.quiet[mode]; q.any() {
		for i, v := range q.part {
			e.gbuf[mode][i] += v
		}
	}
	r := float64(e.opts.Rank)
	e.work += (2*float64(len(e.liveOld[mode])) + float64(len(e.liveNew[mode]))) * r * r
	batch := e.gbuf[mode]
	if e.prev.Dims[mode] == 0 {
		batch = e.gram1[mode].Data
	}
	return e.comm.AllReduceSumInPlace(batch)
}

// refRun is Run and sweep over the reference pieces.
func refRun(e *Sweep) error {
	defer func() {
		e.materialize()
		e.cold = false
	}()
	for m := range e.full {
		e.quietPass(m)
		if err := refReduceGrams(e, m); err != nil {
			return err
		}
	}
	e.trace = e.trace[:0]
	prevLoss := math.Inf(1)
	for sweep := 0; sweep < e.opts.MaxIters; sweep++ {
		for m := range e.full {
			e.mttkrp(m)
			e.fill(e.gram0, e.gram1, e.cross, m, e.opts.Mu, e.gs)
			refUpdateOwnedRows(e, m)
			if err := refReduceGrams(e, m); err != nil {
				return err
			}
		}
		inner, err := e.comm.ReduceScalarSum(e.lossLocalInner())
		if err != nil {
			return err
		}
		loss := e.lossFinish(inner)
		e.trace = append(e.trace, loss)
		if relChange(prevLoss, loss) < e.opts.Tol {
			break
		}
		prevLoss = loss
	}
	return nil
}

// refStep is one seeded random streaming step: a random prior of the old
// mode sizes (empty for a first snapshot) and a snapshot whose entries
// are drawn where keep allows.
type refStep struct {
	name             string
	oldDims, newDims []int
	nnz              int
	keep             func(idx []int) bool // nil: anywhere
}

var refSteps = []refStep{
	// Mode 1 does not grow (no new live row); mode 2 is short enough that
	// every row is named (no quiet row); mode 0 has all four kinds.
	{name: "mixed", oldDims: []int{30, 20, 8}, newDims: []int{40, 20, 10}, nnz: 90},
	// Every arriving entry sits in mode 0's growth: no old live row there,
	// so T rides the old block alone.
	{name: "growth-only", oldDims: []int{12, 14, 9}, newDims: []int{20, 14, 9}, nnz: 40,
		keep: func(idx []int) bool { return idx[0] >= 12 }},
	// Nothing arrives outside the old box: every mode holds only quiet
	// rows, old and grown.
	{name: "only-quiet", oldDims: []int{10, 8, 6}, newDims: []int{13, 8, 7}, nnz: 30,
		keep: func(idx []int) bool { return idx[0] < 10 && idx[1] < 8 && idx[2] < 6 }},
	// Empty prior: no old row in any mode, the batch is A¹ᵀA¹ alone.
	{name: "first-snapshot", oldDims: []int{0, 0, 0}, newDims: []int{15, 12, 6}, nnz: 80},
	{name: "order-4", oldDims: []int{12, 10, 6, 4}, newDims: []int{15, 12, 6, 5}, nnz: 60},
}

// build draws the step's prior and snapshot. poke, when set, plants an
// all-zero factor column and scattered ±0 entries in the prior.
func (c refStep) build(rank int, seed uint64, poke bool) (*State, *tensor.Tensor) {
	src := xrand.New(seed)
	prev := &State{Dims: c.oldDims}
	for _, d := range c.oldDims {
		f := mat.RandomUniform(d, rank, src)
		if poke {
			pokeZeros(f)
		}
		prev.Factors = append(prev.Factors, f)
	}
	b := tensor.NewBuilder(c.newDims)
	idx := make([]int, len(c.newDims))
	for e := 0; e < c.nnz; {
		for m, d := range c.newDims {
			idx[m] = src.Intn(d)
		}
		if c.keep != nil && !c.keep(idx) {
			continue
		}
		b.Append(idx, src.Float64()+0.5)
		e++
	}
	return prev, b.Build()
}

// pokeZeros zeroes the factor's last column and scatters +0, −0 and sign
// flips over the rest.
func pokeZeros(f *mat.Dense) {
	for i := range f.Data {
		switch {
		case i%f.Cols == f.Cols-1 || i%7 == 0:
			f.Data[i] = 0
		case i%7 == 1:
			f.Data[i] = math.Copysign(0, -1)
		case i%7 == 2:
			f.Data[i] = -f.Data[i]
		}
	}
}

// warmFactors returns replicas unrelated to the prior, the way a driver
// hands over factors it carried across a view change.
func warmFactors(s *Sweep, seed uint64, poke bool) []*mat.Dense {
	src := xrand.New(seed)
	out := make([]*mat.Dense, len(s.newDims))
	for m, d := range s.newDims {
		out[m] = mat.RandomUniform(d, s.opts.Rank, src)
		if poke {
			pokeZeros(out[m])
		}
	}
	return out
}

// rowKinds records which of the issue's mode shapes a set of engines has
// exercised, so the table cannot quietly stop covering one.
type rowKinds struct{ noOldLive, tAlone, noNewLive, noQuiet, onlyQuiet, everything bool }

func (k *rowKinds) see(e *Sweep) {
	for m := range e.full {
		b, q := &e.blocks[m], &e.quiet[m]
		k.noOldLive = k.noOldLive || (b.nOld == 0 && e.prev.Dims[m] > 0)
		k.tAlone = k.tAlone || (b.nOld == 0 && b.nT > 0 && b.nNew > 0)
		k.noNewLive = k.noNewLive || (b.nNew == 0 && b.nOld > 0)
		k.noQuiet = k.noQuiet || (!q.any() && b.nOld > 0 && b.nNew > 0)
		k.onlyQuiet = k.onlyQuiet || (q.any() && b.nOld+b.nNew == 0)
		k.everything = k.everything || (b.nOld > 0 && b.nNew > 0 && len(q.old) > 0 && len(q.grown) > 0)
	}
}

func requireSameSweepState(t *testing.T, what string, got, want *Sweep) {
	t.Helper()
	requireSameEngineBits(t, what, got, want)
	for m := range want.full {
		if !sameBits(got.gbuf[m], want.gbuf[m]) {
			t.Fatalf("%s: mode %d Gram batch differs", what, m)
		}
		if gq, wq := &got.quiet[m], &want.quiet[m]; wq.any() && !sameBits(gq.t.Data, wq.t.Data) {
			t.Fatalf("%s: mode %d T differs", what, m)
		}
		// The block and the replica hold the same bits between solves.
		b := &got.blocks[m]
		for i, row := range got.liveOld[m] {
			for c := 0; c < got.opts.Rank; c++ {
				if math.Float64bits(b.oldT[c*(b.nOld+b.nT)+i]) != math.Float64bits(got.full[m].At(int(row), c)) {
					t.Fatalf("%s: mode %d old block and replica disagree at row %d", what, m, row)
				}
			}
		}
		for i, row := range got.liveNew[m] {
			for c := 0; c < got.opts.Rank; c++ {
				if math.Float64bits(b.newT[c*b.nNew+i]) != math.Float64bits(got.full[m].At(int(row), c)) {
					t.Fatalf("%s: mode %d new block and replica disagree at row %d", what, m, row)
				}
			}
		}
	}
}

// TestLiveBlockMatchesRowMajorReference: over seeded random steps of
// every mode shape, ranks that do and do not divide by four, cold and
// warm bindings and thread counts that do not divide the block, two
// consecutive Runs leave factors, Gram batches, T, loss trace and Work
// equal bit for bit to the row-major reference — including on factors
// with exact-zero columns and −0 entries, where the two differ in which
// ±0 terms they add.
func TestLiveBlockMatchesRowMajorReference(t *testing.T) {
	var seen rowKinds
	for ci, c := range refSteps {
		for _, rank := range []int{1, 3, 10, 16} {
			for _, warm := range []bool{false, true} {
				for _, poke := range []bool{false, true} {
					if poke && (rank != 3 || c.name != "mixed") {
						continue
					}
					seed := uint64(100*ci + rank)
					prev, snap := c.build(rank, seed, poke)
					factors := func(s *Sweep) []*mat.Dense {
						if !warm {
							return nil
						}
						return warmFactors(s, seed+1, poke)
					}
					opts := Options{Rank: rank, MaxIters: 3, Tol: 1e-300, Mu: 0.7, Seed: seed + 2}
					s, err := NewSweep(prev, snap, opts)
					if err != nil {
						t.Fatal(err)
					}
					want := bindWorld(s, factors(s), nil, false)
					seen.see(want)
					if err := refRun(want); err != nil {
						t.Fatal(err)
					}
					wantFirst := snapshotEngine(want)
					if err := refRun(want); err != nil {
						t.Fatal(err)
					}
					want.Close()
					for _, threads := range []int{1, 2, 3, 8} {
						name := fmt.Sprintf("%s/R=%d/warm=%v/poke=%v/threads=%d", c.name, rank, warm, poke, threads)
						opts.Threads = threads
						st, err := NewSweep(prev, snap, opts)
						if err != nil {
							t.Fatal(err)
						}
						got := bindWorld(st, factors(st), nil, false)
						for _, run := range []struct {
							what string
							want *Sweep
						}{{"first Run", wantFirst}, {"second Run", want}} {
							if err := got.Run(nil); err != nil {
								t.Fatal(err)
							}
							requireSameSweepState(t, name+": "+run.what, got, run.want)
						}
						got.Close()
					}
				}
			}
		}
	}
	if seen != (rowKinds{true, true, true, true, true, true}) {
		t.Fatalf("mode shapes exercised: %+v, want all", seen)
	}
}

// snapshotEngine copies what requireSameSweepState reads of an engine.
func snapshotEngine(e *Sweep) *Sweep {
	out := &Sweep{step: e.step, full: cloneAll(e.full), work: e.work, quiet: make([]quietRows, len(e.quiet))}
	out.trace = append([]float64(nil), e.trace...)
	for m := range e.full {
		out.gbuf = append(out.gbuf, append([]float64(nil), e.gbuf[m]...))
		if q := &e.quiet[m]; q.any() {
			out.quiet[m] = quietRows{old: q.old, grown: q.grown, t: q.t.Clone()}
		}
	}
	return out
}

// TestLiveBlockNonFiniteFactor documents the one input on which dropping
// a zero-skip shows: a factor row holding both an exact zero and an
// infinity. The row-major loop skipped the zero's products, so its
// A⁰ᵀA⁰ kept a finite entry where the dot product now adds 0·∞ = NaN.
// Both Grams are non-finite — the model is already lost — but not in the
// same entries, so the bit-for-bit claim is for finite factors only.
func TestLiveBlockNonFiniteFactor(t *testing.T) {
	prev, snap := refSteps[0].build(3, 77, false)
	s, err := NewSweep(prev, snap, Options{Rank: 3, MaxIters: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	probe := bindWorld(s, nil, nil, false)
	row := int(probe.liveOld[0][0])
	probe.Close()
	factors := s.stack()
	factors[0].Set(row, 0, 0)
	factors[0].Set(row, 2, math.Inf(1))
	got := bindWorld(s, cloneAll(factors), nil, false)
	defer got.Close()
	want := bindWorld(s, cloneAll(factors), nil, false)
	defer want.Close()
	if err := got.reduceGrams(0); err != nil {
		t.Fatal(err)
	}
	if err := refReduceGrams(want, 0); err != nil {
		t.Fatal(err)
	}
	if g, w := got.gram0[0].At(2, 2), want.gram0[0].At(2, 2); !math.IsInf(g, 1) || !math.IsInf(w, 1) {
		t.Fatalf("A⁰ᵀA⁰[2][2] = %v (block) and %v (reference), want +Inf in both", g, w)
	}
	if g, w := got.gram0[0].At(0, 2), want.gram0[0].At(0, 2); !math.IsNaN(g) || math.IsNaN(w) || math.IsInf(w, 0) {
		t.Fatalf("A⁰ᵀA⁰[0][2] = %v (block) and %v (reference), want NaN and a finite value", g, w)
	}
}
