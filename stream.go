package dismastd

import (
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"dismastd/internal/core"
	"dismastd/internal/dtd"
	"dismastd/internal/layout"
	"dismastd/internal/par"
	"dismastd/internal/partition"
	"dismastd/internal/sample"
	"dismastd/internal/tensor"
	"dismastd/internal/xrand"
)

// Options configures a streaming decomposer.
type Options struct {
	// Rank is the number of CP components R. Required.
	Rank int
	// MaxIters bounds the ALS sweeps per snapshot. Default (0) 10, the
	// paper's setting; a negative value is an error.
	MaxIters int
	// Tol stops a snapshot's iteration when the relative loss change
	// falls below it. Default 1e-6.
	Tol float64
	// ForgettingFactor is the paper's μ ∈ (0, 1]: how strongly the
	// previous decomposition anchors the old region. Default 0.8.
	ForgettingFactor float64
	// Seed makes runs reproducible. Default 1.
	Seed uint64

	// Workers is the size of the in-process cluster every boundary runs
	// DisMASTD on. Default 1, where the result is the centralized
	// dynamic algorithm (DTD) bit for bit; more workers change only the
	// reduction order of the Gram partials.
	Workers int
	// Partitioner chooses GTP or MTP. Default GTP; MTP balances better
	// on skewed data.
	Partitioner Partitioner

	// Threads sizes the shared-memory pool each worker runs its numeric
	// kernels on — complement extraction and kernel compilation too. The
	// default (0) shares the process among the workers: max(1,
	// GOMAXPROCS/Workers), read when the options are first resolved; 1
	// means sequential. Factors are bitwise identical at every value —
	// parallelism never reorders a floating-point reduction.
	Threads int

	// Layout is accepted and ignored: "compiled", "coo" and "" all run
	// the compiled sparse layout, the one representation the engines
	// sweep on (the COO walk survives as the tests' oracle; factors were
	// bitwise identical under either). Any other value is still an
	// error. The field stays until the benchmark harness stops naming it.
	Layout string

	// Solver selects the per-sweep least-squares strategy: "exact" (or
	// "", the default) runs the full MTTKRP over every entry of the
	// snapshot region; "sampled" replaces it with a randomized
	// leverage-score sketch of sample.DefaultSamples (8192) rows per
	// mode — sublinear in the region's non-zeros once they dwarf the
	// sketch, at the cost of a small fit gap. Sampled runs are
	// reproducible: the same seed gives bitwise-identical factors at
	// every thread count and on repeated runs at the same Workers value.
	Solver string

	// SweepEvery fires the drift-backstop full ALS sweep automatically
	// once that many events are pending. 0 (the default) sweeps only on
	// an explicit Flush, a bulk Ingest, or Save. Bulk-only streams
	// never consult it.
	SweepEvery int
}

func (o Options) withDefaults() (Options, error) {
	if o.Rank <= 0 {
		return o, fmt.Errorf("dismastd: Rank must be positive, got %d", o.Rank)
	}
	if o.Workers == 0 {
		o.Workers = 1
	}
	if o.Workers < 0 {
		return o, fmt.Errorf("dismastd: Workers must be positive, got %d", o.Workers)
	}
	if o.MaxIters < 0 {
		return o, fmt.Errorf("dismastd: MaxIters must be non-negative, got %d", o.MaxIters)
	}
	if !(o.ForgettingFactor >= 0 && o.ForgettingFactor <= 1) {
		return o, fmt.Errorf("dismastd: ForgettingFactor must be in (0, 1] or 0 for the default, got %v", o.ForgettingFactor)
	}
	if o.Threads < 0 {
		return o, fmt.Errorf("dismastd: Threads must be non-negative, got %d", o.Threads)
	}
	if o.Threads == 0 {
		o.Threads = par.ThreadsPerRank(o.Workers)
	}
	if o.SweepEvery < 0 {
		return o, fmt.Errorf("dismastd: SweepEvery must be non-negative, got %d", o.SweepEvery)
	}
	if _, err := layout.ParseKind(o.Layout); err != nil {
		return o, fmt.Errorf("dismastd: %v", err)
	}
	if _, err := sample.ParseKind(o.Solver); err != nil {
		return o, fmt.Errorf("dismastd: %v", err)
	}
	return o, nil
}

// solverKind returns the parsed Solver; call after withDefaults.
func (o Options) solverKind() sample.Kind {
	k, _ := sample.ParseKind(o.Solver)
	return k
}

// Event is one streaming observation: a value at a coordinate. Events
// outside the current mode sizes grow the tensor — the multi-aspect
// case — with the affected modes extended to cover the coordinate.
type Event struct {
	Coords []int
	Value  float64
}

// StepReport summarises what one full-sweep boundary did — a bulk
// Ingest, or the flush of accumulated events.
type StepReport struct {
	Snapshot       int           // 0-based snapshot index
	Iters          int           // ALS sweeps performed
	Loss           float64       // √L — the paper's Eq. (4) objective (Eq. 1 for the first snapshot)
	EntriesTouched int           // non-zeros processed: the whole first snapshot, then only each delta
	Wall           time.Duration // processing time of this call
	BytesOnWire    int64         // measured cluster traffic (0 on one worker)
	Imbalance      []float64     // per-mode partition load CV
}

// EventReport summarises one IngestEvents call. It is returned by
// value and its Dims slice is reused by the stream — copy it if you
// keep it past the next call.
type EventReport struct {
	Events      int         // events admitted by this call
	RowsUpdated int64       // factor rows re-solved (bounded work actually done); 0 in a call that swept, whose sweep supersedes them
	Pending     int         // events accumulated toward the next full sweep
	Grew        bool        // whether this call grew any mode
	Dims        []int       // current mode sizes after the call
	Sweep       *StepReport // set when the drift backstop fired during this call
	Wall        time.Duration
}

// Stream decomposes a multi-aspect streaming tensor. Create with
// NewStream, then feed it either nested bulk snapshots (Ingest) or
// individual events and micro-batches (IngestEvents), and read the
// current factors or predictions at any point.
//
// The two paths share one advance core. Bulk Ingest runs a full ALS
// sweep over each snapshot's newly arrived region, exactly as before.
// IngestEvents accumulates entries into a pending region and re-solves
// only the factor rows each micro-batch touches — bounded work per
// event — while the pending region awaits the next full sweep: the
// drift backstop that Flush, a bulk Ingest, Save, or the SweepEvery
// threshold triggers. At that boundary the sweep advances from the
// anchor (the state of the previous boundary) over the accumulated
// entries, so a stream fed the same new-region data as events or as a
// bulk snapshot holds bitwise-identical factors at every boundary.
// Between boundaries the event-updated factors serve reads; events
// landing wholly inside the anchor region refine those serving factors
// but are superseded at the next sweep, which anchors on the region's
// already-decomposed history (the streaming model's old-data
// contract).
type Stream struct {
	opts     Options
	vopts    Options     // resolved once by ensureOpts (never re-validated per call)
	sk       sample.Kind // parsed once alongside vopts
	optsErr  error
	optsDone bool

	state   *dtd.State // live factors: bulk results plus event-path row updates
	step    int        // full-sweep boundaries completed (snapshot index)
	updater *dtd.Updater
	session *core.Session // the Workers-rank cluster every boundary steps on, created on first use

	// Pre-Init event accumulation: before any data has been decomposed
	// there are no factors to update, so events buffer here and the
	// first flush runs full CP-ALS over them.
	preOrder  int
	preDims   []int
	preCoords []int32
	preVals   []float64

	// Reused per-call scratch, so steady-state IngestEvents does not
	// allocate.
	evCoords []int32
	evVals   []float64
	growDims []int
	idxBuf   []int
	rep      EventReport
}

// NewStream returns an empty streaming decomposer. The options are
// validated once, at the first call that needs them.
func NewStream(opts Options) *Stream { return &Stream{opts: opts} }

// ensureOpts resolves and validates the options exactly once; every
// later call reuses the cached resolution (and the cached error).
func (s *Stream) ensureOpts() error {
	if !s.optsDone {
		s.vopts, s.optsErr = s.opts.withDefaults()
		if s.optsErr == nil {
			s.sk = s.vopts.solverKind()
		}
		s.optsDone = true
	}
	return s.optsErr
}

func (s *Stream) dtdOptions(seed uint64) dtd.Options {
	return dtd.Options{
		Rank: s.vopts.Rank, MaxIters: s.vopts.MaxIters, Tol: s.vopts.Tol,
		Mu: s.vopts.ForgettingFactor, Seed: seed,
		Threads: s.vopts.Threads,
		Solver:  s.sk,
	}
}

func (s *Stream) coreOptions(seed uint64) core.Options {
	return core.Options{
		Rank: s.vopts.Rank, MaxIters: s.vopts.MaxIters, Tol: s.vopts.Tol,
		Mu: s.vopts.ForgettingFactor, Seed: seed,
		Workers: s.vopts.Workers,
		Method:  partition.Method(s.vopts.Partitioner),
		Threads: s.vopts.Threads,
		Solver:  s.sk,
	}
}

// Ingest advances the decomposition to the given snapshot, which must
// contain every previously ingested snapshot as a prefix sub-tensor.
// The first snapshot is decomposed with full CP-ALS; every later one
// costs work proportional to the newly arrived data only. Events still
// pending from IngestEvents are flushed (their own sweep boundary)
// before the snapshot's step runs.
func (s *Stream) Ingest(snapshot *Tensor) (*StepReport, error) {
	if err := s.ensureOpts(); err != nil {
		return nil, err
	}
	if err := validateIngestTensor(snapshot); err != nil {
		return nil, err
	}
	if s.pendingEvents() > 0 {
		if _, err := s.Flush(); err != nil {
			return nil, err
		}
	}
	return s.advance(s.state, snapshot)
}

// IngestEvents admits a micro-batch of events. Coordinates outside the
// current mode sizes grow the affected modes. Each touched factor row
// is re-solved with the Eq. (5) row update against the pending region
// — bounded work per event — and the batch joins the pending region
// consumed by the next full sweep. A call that brings the pending
// region to SweepEvery skips the row solves: its own sweep starts from
// the anchor and would discard them. Before any data has been
// decomposed, events buffer until the first flush runs full CP-ALS.
func (s *Stream) IngestEvents(events []Event) (EventReport, error) {
	if err := s.ensureOpts(); err != nil {
		return EventReport{}, err
	}
	start := time.Now()
	s.rep = EventReport{Events: len(events), Dims: s.rep.Dims}
	rep := &s.rep
	// The pending count is exact (the pending region keeps every event),
	// so whether this call ends at a SweepEvery boundary is known before
	// the batch lands.
	sweeps := s.vopts.SweepEvery > 0 && s.pendingEvents()+len(events) >= s.vopts.SweepEvery
	if len(events) > 0 {
		if err := s.checkEvents(events); err != nil {
			return EventReport{}, err
		}
		if s.state == nil {
			s.bufferPreInit(events)
		} else if err := s.applyEvents(events, !sweeps, rep); err != nil {
			return EventReport{}, err
		}
	}
	rep.Pending = s.pendingEvents()
	if sweeps {
		sr, err := s.Flush()
		if err != nil {
			return EventReport{}, err
		}
		rep.Sweep = sr
		rep.Pending = s.pendingEvents()
	}
	rep.Dims = append(rep.Dims[:0], s.liveDims()...)
	rep.Wall = time.Since(start)
	return *rep, nil
}

// Flush runs the drift-backstop full ALS sweep over the events
// accumulated since the last boundary, re-anchoring the stream at the
// result. With nothing pending it is a no-op returning a nil report.
func (s *Stream) Flush() (*StepReport, error) {
	if err := s.ensureOpts(); err != nil {
		return nil, err
	}
	if s.state == nil {
		if len(s.preVals) == 0 {
			return nil, fmt.Errorf("dismastd: Flush before any data")
		}
		b := NewBuilder(s.preDims)
		for e := range s.preVals {
			s.idxBuf = s.idxBuf[:0]
			for m := 0; m < s.preOrder; m++ {
				s.idxBuf = append(s.idxBuf, int(s.preCoords[e*s.preOrder+m]))
			}
			b.Append(s.idxBuf, s.preVals[e])
		}
		x := b.Build()
		if x.NNZ() == 0 {
			return nil, fmt.Errorf("dismastd: pending events cancel to an empty tensor")
		}
		s.preCoords, s.preVals = nil, nil
		return s.advance(nil, x)
	}
	if s.updater == nil || s.updater.Pending() == 0 {
		return nil, nil
	}
	// The sweep snapshot carries exactly the pending entries at the live
	// dims: the step consumes only its complement against the anchor
	// region and its dims, both identical to what a cumulative bulk
	// snapshot of the same data would yield.
	d := s.updater.Delta()
	b := NewBuilder(s.state.Dims)
	for e := 0; e < d.NNZ(); e++ {
		var v float64
		s.idxBuf, v = d.Entry(e, s.idxBuf)
		b.Append(s.idxBuf, v)
	}
	return s.advance(s.updater.Anchor(), b.Build())
}

// advance runs one full-sweep boundary — the shared core of Ingest and
// Flush — as one step of the stream's session: the first data steps from
// the empty state (CP-ALS), every later boundary from prev over its
// complement, seeded by the boundary index. The event updater is
// re-anchored on the result.
func (s *Stream) advance(prev *dtd.State, snapshot *tensor.Tensor) (*StepReport, error) {
	start := time.Now()
	seed := s.vopts.Seed
	if prev == nil {
		prev = dtd.EmptyState(snapshot.Order(), s.vopts.Rank)
	} else {
		seed = xrand.Derive(seed, uint64(s.step))
	}
	if s.session == nil {
		s.session = core.NewSession(s.vopts.Workers)
	}
	st, stats, err := s.session.Step(prev, snapshot, s.coreOptions(seed))
	if err != nil {
		return nil, err
	}
	s.state = st
	report := &StepReport{
		Snapshot:       s.step,
		Iters:          stats.Iters,
		Loss:           stats.Loss,
		EntriesTouched: stats.ComplementNNZ,
		BytesOnWire:    stats.Cluster.TotalBytes(),
		Imbalance:      stats.Imbalance,
	}
	if s.updater != nil {
		s.updater.Reset(s.state)
	}
	report.Wall = time.Since(start)
	s.step++
	return report, nil
}

// maxBatchGrowth is the most rows one event batch may add to a mode:
// factors are sized straight from the coordinates, so an unchecked one
// is an allocation of the sender's choosing. Book's 1.5e7 reviewers, the
// largest mode in the paper's Table III, still arrive in one batch.
const maxBatchGrowth = 1 << 24

// ErrGrowthTooLarge reports an event batch refused for its size: a
// coordinate beyond the int32 range entries are stored in, or one that
// would grow a mode by more than 1<<24 rows at once. Nothing of the
// batch has been admitted.
var ErrGrowthTooLarge = errors.New("dismastd: event batch grows a mode too far")

// checkEvents validates a batch before anything of it is buffered or
// sized: consistent order, non-negative coordinates within the growth
// ceiling, finite values.
func (s *Stream) checkEvents(events []Event) error {
	dims := s.liveDims() // nil before the first pre-init batch: every mode is empty
	order := 0
	switch {
	case s.state != nil:
		order = len(s.state.Dims)
	case s.preOrder > 0:
		order = s.preOrder
	}
	for i := range events {
		ev := &events[i]
		if order == 0 {
			order = len(ev.Coords)
			if order == 0 {
				return fmt.Errorf("dismastd: event %d has no coordinates", i)
			}
		}
		if len(ev.Coords) != order {
			return fmt.Errorf("dismastd: event %d has %d coordinates, stream order is %d", i, len(ev.Coords), order)
		}
		for m, c := range ev.Coords {
			if c < 0 {
				return fmt.Errorf("dismastd: event %d has negative coordinate %d in mode %d", i, c, m)
			}
			size := 0
			if dims != nil {
				size = dims[m]
			}
			if c > math.MaxInt32 || c-size >= maxBatchGrowth {
				return fmt.Errorf("%w: event %d has coordinate %d in mode %d of size %d", ErrGrowthTooLarge, i, c, m, size)
			}
		}
		if math.IsNaN(ev.Value) || math.IsInf(ev.Value, 0) {
			return fmt.Errorf("dismastd: event %d has non-finite value %v", i, ev.Value)
		}
	}
	if s.state == nil {
		s.preOrder = order
	}
	return nil
}

// bufferPreInit accumulates events arriving before the first
// decomposition exists.
func (s *Stream) bufferPreInit(events []Event) {
	if s.preDims == nil {
		s.preDims = make([]int, s.preOrder)
	}
	for i := range events {
		ev := &events[i]
		for m, c := range ev.Coords {
			if c+1 > s.preDims[m] {
				s.preDims[m] = c + 1
			}
			s.preCoords = append(s.preCoords, int32(c))
		}
		s.preVals = append(s.preVals, ev.Value)
	}
}

// applyEvents grows the live dims when the batch requires it, then
// hands the batch to the row updater — to the pending region alone when
// solve is false: the sweep that ends such a call starts from the
// anchor and re-anchors the updater, dropping every row a solve would
// write. Growth runs either way, so its random draws are consumed and
// later growth rows stay the same.
func (s *Stream) applyEvents(events []Event, solve bool, rep *EventReport) error {
	if s.updater == nil {
		u, err := dtd.NewUpdater(s.state, s.dtdOptions(s.vopts.Seed))
		if err != nil {
			return err
		}
		s.updater = u
	}
	s.growDims = append(s.growDims[:0], s.state.Dims...)
	grew := false
	for i := range events {
		for m, c := range events[i].Coords {
			if c+1 > s.growDims[m] {
				s.growDims[m] = c + 1
				grew = true
			}
		}
	}
	if grew {
		if err := s.updater.Grow(s.growDims); err != nil {
			return err
		}
		rep.Grew = true
	}
	n := len(s.state.Dims)
	s.evCoords = s.evCoords[:0]
	s.evVals = s.evVals[:0]
	for i := range events {
		for _, c := range events[i].Coords {
			s.evCoords = append(s.evCoords, int32(c))
		}
		s.evVals = append(s.evVals, events[i].Value)
	}
	if len(s.evCoords) != n*len(s.evVals) {
		return fmt.Errorf("dismastd: inconsistent event batch")
	}
	if !solve {
		s.updater.Delta().Append(s.evCoords, s.evVals)
		return nil
	}
	before := s.updater.RowsTouched()
	s.updater.Apply(s.evCoords, s.evVals)
	rep.RowsUpdated = s.updater.RowsTouched() - before
	return nil
}

// pendingEvents returns how many events await the next full sweep.
func (s *Stream) pendingEvents() int {
	if s.state == nil {
		return len(s.preVals)
	}
	if s.updater == nil {
		return 0
	}
	return s.updater.Pending()
}

func (s *Stream) liveDims() []int {
	if s.state != nil {
		return s.state.Dims
	}
	return s.preDims
}

// Factors returns the current factor matrices, one per mode — the live
// serving view, including event-path row updates — or nil before the
// first data. Mutating them affects the stream.
func (s *Stream) Factors() []*Dense {
	if s.state == nil {
		return nil
	}
	return s.state.Factors
}

// Dims returns the current mode sizes: the last ingested snapshot's,
// extended by any growth events since.
func (s *Stream) Dims() []int {
	if s.state == nil {
		return nil
	}
	return s.state.Dims
}

// Snapshots returns how many full-sweep boundaries have completed —
// bulk snapshots ingested plus event flushes.
func (s *Stream) Snapshots() int { return s.step }

// Pending returns how many events are accumulated toward the next full
// sweep.
func (s *Stream) Pending() int { return s.pendingEvents() }

// Predict reconstructs the model value at idx from the current factors.
// It panics before the first data or on out-of-range indices.
func (s *Stream) Predict(idx []int) float64 {
	if s.state == nil {
		panic("dismastd: Predict before any Ingest")
	}
	return Predict(s.state.Factors, idx)
}

// Save checkpoints the stream's decomposition state — flushing any
// pending events first, so the checkpoint reflects a sweep boundary —
// for later resumption with ResumeStream. At least one snapshot or
// event must have been ingested. The envelope records the boundary
// counter, so a resumed stream keeps reporting snapshot indices where
// this one left off.
func (s *Stream) Save(w io.Writer) error {
	if err := s.ensureOpts(); err != nil {
		return err
	}
	if s.pendingEvents() > 0 {
		if _, err := s.Flush(); err != nil {
			return err
		}
	}
	if s.state == nil {
		return fmt.Errorf("dismastd: Save before any Ingest")
	}
	return dtd.WriteStateSteps(w, s.state, uint64(s.step))
}

// ResumeStream restores a stream checkpointed with Save. The options
// must use the same Rank; snapshots ingested next must extend the
// checkpointed dims. Current checkpoints carry the snapshot counter,
// so indices continue where Save left off; a checkpoint from before
// the counter existed resumes at index 1 (the checkpoint counts as
// snapshot 0).
func ResumeStream(r io.Reader, opts Options) (*Stream, error) {
	vopts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	state, steps, err := dtd.ReadStateSteps(r)
	if err != nil {
		return nil, err
	}
	for m, f := range state.Factors {
		if f.Cols != vopts.Rank {
			return nil, fmt.Errorf("dismastd: checkpoint factor %d has rank %d, options say %d", m, f.Cols, vopts.Rank)
		}
	}
	step := int(steps)
	if step == 0 {
		step = 1
	}
	return &Stream{opts: opts, state: state, step: step}, nil
}
