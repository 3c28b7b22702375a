// Package dplan builds the data-distribution plan of the distributed
// decomposition (internal/core, which runs DisMASTD and, from the empty
// state, the DMS-MG baseline) and of distributed completion:
//
//   - per-mode slice partitioning via GTP or MTP (Section IV-A2),
//   - assignment of partitions to workers,
//   - per-(worker, mode) entry lists — the row-wise tensor distribution
//     of Fig. 4, one 1-D decomposition per mode,
//   - factor-row ownership and the static row-subscription lists that
//     drive the post-update row exchange (Section IV-A3: "we assign all
//     the related factor matrices to the corresponding tensor
//     partitions in a row-wise pattern").
//
// The plan is computed once per snapshot step: the sparsity pattern is
// fixed across the ALS sweeps, so subscriptions never change within a
// step.
package dplan

import (
	"fmt"
	"slices"

	"dismastd/internal/cluster"
	"dismastd/internal/mat"
	"dismastd/internal/obs"
	"dismastd/internal/partition"
	"dismastd/internal/tensor"
)

// Plan is the full data distribution for one snapshot step.
type Plan struct {
	Tensor  *tensor.Tensor // the entries driving MTTKRP (complement or full snapshot)
	Dims    []int
	Workers int
	Parts   int // partitions per mode (≥ Workers means finer grain)
	Method  partition.Method

	// Weights holds the per-worker cost weights the plan was built with
	// (BuildWeighted), nil for the unweighted heuristics. Informational:
	// assemble() never reads it.
	Weights []float64

	ModePlans []*partition.ModePlan // per-mode slice -> partition
	Owner     [][]int32             // [mode][slice] -> owning worker

	// EntryLists[w][mode] lists the tensor entry ids whose mode
	// coordinate falls in worker w's mode partitions.
	EntryLists [][][]int32

	// OwnedSlices[mode][w] lists every slice (including empty ones)
	// worker w owns in that mode — the factor rows it updates.
	OwnedSlices [][][]int32

	// Needs[mode][w] lists the mode-rows worker w must read during
	// MTTKRP of the *other* modes, sorted ascending. Owned rows are
	// excluded (they are always locally fresh).
	Needs [][][]int32

	// SendLists[mode][owner][sub] is Needs[mode][sub] restricted to the
	// rows owner holds: the rows owner pushes to sub after updating the
	// mode. nil when owner == sub or the intersection is empty.
	SendLists [][][][]int32
}

// Build computes a plan for distributing t's entries across workers
// with parts partitions per mode. parts > workers spreads several
// partitions per worker round-robin; parts < workers leaves the excess
// workers idle (the left side of the Fig. 6 U-curve, where parallelism
// is limited by the partition count).
func Build(t *tensor.Tensor, workers, parts int, method partition.Method) *Plan {
	return BuildWeighted(t, workers, parts, method, nil)
}

// BuildWeighted is Build with optional per-worker cost weights. Nil
// weights reproduce Build exactly. With len(weights) == workers the
// per-mode partitioning switches to partition.WeightedLPT, minimising
// the weighted makespan max_w weights[w]·load_w — the fence-time
// rebalance path uses this with the measured per-rank costs the
// imbalance detector broadcast, so a skewed stream re-partitions toward
// the ranks that are actually fast. When parts > workers each
// partition inherits the weight of the worker it lands on round-robin.
func BuildWeighted(t *tensor.Tensor, workers, parts int, method partition.Method, weights []float64) *Plan {
	if workers <= 0 {
		panic(fmt.Sprintf("dplan: %d workers", workers))
	}
	if parts <= 0 {
		parts = workers
	}
	if weights != nil && len(weights) != workers {
		panic(fmt.Sprintf("dplan: %d weights for %d workers", len(weights), workers))
	}
	n := t.Order()
	p := &Plan{
		Tensor:  t,
		Dims:    append([]int(nil), t.Dims...),
		Workers: workers,
		Parts:   parts,
		Method:  method,
	}
	var partWeights []float64
	if weights != nil {
		p.Weights = append([]float64(nil), weights...)
		partWeights = make([]float64, parts)
		for q := range partWeights {
			partWeights[q] = weights[q%workers] // round-robin owner's weight
		}
	}
	p.ModePlans = make([]*partition.ModePlan, n)
	for m := 0; m < n; m++ {
		var mp *partition.ModePlan
		if partWeights != nil {
			mp = partition.WeightedLPT(t.SliceNNZ(m), partWeights, parts)
		} else {
			mp = partition.Partition(t.SliceNNZ(m), parts, method)
		}
		mp.Mode = m
		p.ModePlans[m] = mp
	}
	p.assemble()
	return p
}

// RankLoads returns each worker's total planned nnz across all modes —
// the deterministic load signal every rank can feed the imbalance
// detector without any communication (the plan is identical everywhere).
func (p *Plan) RankLoads() []float64 {
	out := make([]float64, p.Workers)
	for _, mp := range p.ModePlans {
		for part, l := range mp.Loads {
			out[part%p.Workers] += float64(l)
		}
	}
	return out
}

// assemble derives everything downstream of the mode plans: ownership,
// entry lists, owned-slice lists, and the row subscriptions. The entry
// and owned-slice lists — the ones as long as the data — are sized by a
// counting pass before they are filled; a list nothing lands in stays
// nil. A one-worker plan (the completion driver's single-rank run)
// skips the entry walks altogether.
func (p *Plan) assemble() {
	n := len(p.Dims)
	t := p.Tensor
	p.Owner = make([][]int32, n)
	p.OwnedSlices = make([][][]int32, n)
	counts := make([]int, p.Workers)
	for m := 0; m < n; m++ {
		owner := make([]int32, p.Dims[m])
		clear(counts)
		for i, part := range p.ModePlans[m].Assign {
			owner[i] = part % int32(p.Workers) // round-robin partitions onto workers
			counts[owner[i]]++
		}
		p.Owner[m] = owner
		p.OwnedSlices[m] = sizedLists(counts)
		for i, w := range owner {
			p.OwnedSlices[m][w] = append(p.OwnedSlices[m][w], int32(i))
		}
	}

	if p.Workers == 1 {
		// A lone worker holds every entry, in entry order, in every mode:
		// one read-only list serves all of them.
		all := sizedLists([]int{t.NNZ()})[0]
		for e := 0; e < t.NNZ(); e++ {
			all = append(all, int32(e))
		}
		p.EntryLists = [][][]int32{make([][]int32, n)}
		for m := range p.EntryLists[0] {
			p.EntryLists[0][m] = all
		}
		p.buildSubscriptions()
		return
	}

	entries := make([][]int, p.Workers) // entries[w][m]: length of worker w's mode-m list
	for w := range entries {
		entries[w] = make([]int, n)
	}
	for e := 0; e < t.NNZ(); e++ {
		base := e * n
		for m := 0; m < n; m++ {
			entries[p.Owner[m][t.Coords[base+m]]][m]++
		}
	}
	p.EntryLists = make([][][]int32, p.Workers)
	for w := range p.EntryLists {
		p.EntryLists[w] = sizedLists(entries[w])
	}
	for e := 0; e < t.NNZ(); e++ {
		base := e * n
		for m := 0; m < n; m++ {
			w := p.Owner[m][t.Coords[base+m]]
			p.EntryLists[w][m] = append(p.EntryLists[w][m], int32(e))
		}
	}

	p.buildSubscriptions()
}

// sizedLists returns one empty list per count with exactly that
// capacity, nil where the count is zero.
func sizedLists(counts []int) [][]int32 {
	out := make([][]int32, len(counts))
	for i, c := range counts {
		if c > 0 {
			out[i] = make([]int32, 0, c)
		}
	}
	return out
}

func (p *Plan) buildSubscriptions() {
	n := len(p.Dims)
	t := p.Tensor
	p.Needs = make([][][]int32, n)
	// seen[m][row] == w+1 once worker w's walk has met the row: one stamp
	// array per mode serves every worker in turn, never cleared.
	seen := make([][]int32, n)
	found := make([][]int32, n) // the rows worker w reads and does not own, in the order met
	for m := 0; m < n; m++ {
		p.Needs[m] = make([][]int32, p.Workers)
		seen[m] = make([]int32, p.Dims[m])
	}
	// For each worker, union the mode-m coordinates appearing in its
	// entry lists of modes k ≠ m.
	for w := 0; w < p.Workers; w++ {
		stamp := int32(w + 1)
		for m := range found {
			found[m] = found[m][:0]
		}
		// A lone worker owns every row it reads, so it needs none.
		for k := 0; p.Workers > 1 && k < n; k++ {
			for _, e := range p.EntryLists[w][k] {
				base := int(e) * n
				for m := 0; m < n; m++ {
					if m == k {
						continue
					}
					row := t.Coords[base+m]
					if seen[m][row] == stamp {
						continue
					}
					seen[m][row] = stamp
					if p.Owner[m][row] != int32(w) { // owned rows are locally fresh
						found[m] = append(found[m], row)
					}
				}
			}
		}
		for m := 0; m < n; m++ {
			rows := append(make([]int32, 0, len(found[m])), found[m]...)
			slices.Sort(rows)
			p.Needs[m][w] = rows
		}
	}
	p.SendLists = make([][][][]int32, n)
	for m := 0; m < n; m++ {
		p.SendLists[m] = make([][][]int32, p.Workers)
		for o := 0; o < p.Workers; o++ {
			p.SendLists[m][o] = make([][]int32, p.Workers)
		}
		for s := 0; s < p.Workers; s++ {
			for _, r := range p.Needs[m][s] {
				o := p.Owner[m][r]
				p.SendLists[m][o][s] = append(p.SendLists[m][o][s], r)
			}
		}
	}
}

// Imbalance returns the per-mode partition load imbalance (coefficient
// of variation of partition nnz) — the Table IV statistic.
func (p *Plan) Imbalance() []float64 {
	out := make([]float64, len(p.ModePlans))
	for m, mp := range p.ModePlans {
		out[m] = mp.ImbalanceStdDev()
	}
	return out
}

// SetupBytes estimates the one-time data-distribution communication of
// Theorem 4: every non-zero entry shipped to its N mode partitions
// (coordinates + value) plus every factor row shipped to its owner.
func (p *Plan) SetupBytes(rank int) int64 {
	n := len(p.Dims)
	entryBytes := int64(p.Tensor.NNZ()) * int64(n) * int64(4*n+8)
	var rowBytes int64
	for _, d := range p.Dims {
		rowBytes += int64(d) * int64(8*rank)
	}
	return entryBytes + rowBytes
}

// Exchanger carries the per-worker reusable state of the row exchange:
// the per-mode stream tags, the pending-peer scratch list, and the
// pooled framed buffers rows are encoded into. One Exchanger per
// (worker, plan), used by that worker's goroutine only; a steady-state
// Exchange performs zero heap allocations on the in-process transport.
type Exchanger struct {
	w       *cluster.Worker
	p       *Plan
	pending []int
	sent    *obs.Counter
}

// NewExchanger binds a worker to a plan for repeated row exchanges.
func NewExchanger(w *cluster.Worker, p *Plan) *Exchanger {
	return &Exchanger{
		w:       w,
		p:       p,
		pending: make([]int, 0, w.Size()),
		sent:    w.Obs().Counter("exchange.rows"),
	}
}

// Exchange pushes the freshly updated owned rows of factor (which is
// the full mode-m matrix, locally replicated) to every subscriber and
// pulls the rows this worker subscribes to: Post, then Collect. All
// workers must call it in lockstep after updating mode m. When broadcast
// is true the full owned row set goes to every other worker regardless
// of need — the row-subscription ablation baseline.
func (e *Exchanger) Exchange(mode int, factor *mat.Dense, broadcast bool) error {
	if err := e.Post(mode, factor, broadcast); err != nil {
		return err
	}
	return e.Collect(mode, factor, broadcast)
}

// rowsFor lists the mode's rows that travel from one worker to another.
func (e *Exchanger) rowsFor(mode, from, to int, broadcast bool) []int32 {
	if broadcast {
		return e.p.OwnedSlices[mode][from]
	}
	return e.p.SendLists[mode][from][to]
}

// Post is the send half of Exchange: rows are packed directly into
// pooled transport buffers, and unbounded mailboxes make the sends
// non-blocking, so a worker may do other work — other collectives
// included, their tags are their own — before it collects.
func (e *Exchanger) Post(mode int, factor *mat.Dense, broadcast bool) error {
	w := e.w
	me := w.Rank()
	tag := w.StreamTagIndexed("rows", mode)
	r := factor.Cols
	for s := 0; s < w.Size(); s++ {
		rows := e.rowsFor(mode, me, s, broadcast)
		if s == me || len(rows) == 0 {
			continue
		}
		buf := w.GetBuf(8 * len(rows) * r)
		off := 0
		for _, row := range rows {
			cluster.PutFloat64s(buf[off:off+8*r], factor.Row(int(row)))
			off += 8 * r
		}
		e.sent.Add(int64(len(rows)))
		if err := w.SendPooled(s, tag, buf); err != nil {
			return err
		}
	}
	return nil
}

// Collect is the receive half of Exchange: incoming blocks are scattered
// into the local replica in arrival order (RecvAny), whatever the peer
// order — safe bitwise, because each peer's block covers a disjoint row
// set, so the landing order cannot change any value.
func (e *Exchanger) Collect(mode int, factor *mat.Dense, broadcast bool) error {
	w := e.w
	me := w.Rank()
	tag := w.StreamTagIndexed("rows", mode)
	r := factor.Cols
	e.pending = e.pending[:0]
	for o := 0; o < w.Size(); o++ {
		if o != me && len(e.rowsFor(mode, o, me, broadcast)) > 0 {
			e.pending = append(e.pending, o)
		}
	}
	for len(e.pending) > 0 {
		i, payload, err := w.RecvAny(tag, e.pending)
		if err != nil {
			return err
		}
		o := e.pending[i]
		e.pending[i] = e.pending[len(e.pending)-1]
		e.pending = e.pending[:len(e.pending)-1]
		rows := e.rowsFor(mode, o, me, broadcast)
		if len(payload) != 8*len(rows)*r {
			return fmt.Errorf("dplan: row exchange from %d mode %d: %d bytes for %d rows", o, mode, len(payload), len(rows))
		}
		off := 0
		for _, row := range rows {
			cluster.CopyFloat64s(factor.Row(int(row)), payload[off:off+8*r])
			off += 8 * r
		}
		w.PutBuf(payload)
	}
	return nil
}

// ExchangeRows is the one-shot form of Exchanger.Exchange, for callers
// outside the steady-state sweep.
func ExchangeRows(w *cluster.Worker, p *Plan, mode int, factor *mat.Dense, broadcast bool) error {
	return NewExchanger(w, p).Exchange(mode, factor, broadcast)
}

// GatherOwnedRows completes rank 0's replicas into the full factors and
// returns them there; other ranks get nil. owned[m][rank] lists the
// mode-m rows that rank owns (a plan's OwnedSlices); full are the
// caller's replicas. Rank 0's replica already holds rank 0's owned rows
// in final form, so it is adopted as the result and only the other
// ranks' owned rows travel: one message per (mode, rank with rows in
// it), scattered into the replica straight from the payload in arrival
// order (each peer's block covers a disjoint row set, so the landing
// order cannot change a value). The payloads are one-shot and as large
// as a factor; they stay out of the transport's pool.
func GatherOwnedRows(w *cluster.Worker, owned [][][]int32, full []*mat.Dense) ([]*mat.Dense, error) {
	me := w.Rank()
	if me != 0 {
		for m, f := range full {
			rows := owned[m][me]
			if len(rows) == 0 {
				continue
			}
			r := f.Cols
			buf := make([]byte, 8*len(rows)*r)
			for i, s := range rows {
				cluster.PutFloat64s(buf[8*i*r:8*(i+1)*r], f.Row(int(s)))
			}
			if err := w.Send(0, w.StreamTagIndexed("gather", m), buf); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}
	gathered := w.Obs().Counter("gather.rows")
	pending := make([]int, 0, w.Size())
	for m, f := range full {
		r := f.Cols
		tag := w.StreamTagIndexed("gather", m)
		pending = pending[:0]
		for rank := 1; rank < w.Size(); rank++ {
			if len(owned[m][rank]) > 0 {
				pending = append(pending, rank)
			}
		}
		for len(pending) > 0 {
			i, payload, err := w.RecvAny(tag, pending)
			if err != nil {
				return nil, err
			}
			rank := pending[i]
			pending[i] = pending[len(pending)-1]
			pending = pending[:len(pending)-1]
			rows := owned[m][rank]
			if len(payload) != 8*len(rows)*r {
				return nil, fmt.Errorf("dplan: gather mode %d rank %d: %d bytes for %d rows", m, rank, len(payload), len(rows))
			}
			for i, s := range rows {
				cluster.CopyFloat64s(f.Row(int(s)), payload[8*i*r:8*(i+1)*r])
			}
			gathered.Add(int64(len(rows)))
		}
	}
	return full, nil
}
