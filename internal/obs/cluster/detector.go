package obscluster

import (
	"math"

	"dismastd/internal/partition"
)

// Detector settings.
const (
	// threshold is the coefficient of variation above which a rebalance
	// is suggested — the same statistic partition.ImbalanceStdDev
	// reports for static plans.
	threshold = 0.3

	// cooldown is the minimum number of fences between fires.
	// Suggestions keep streaming during the cool-down; only the fire bit
	// is suppressed.
	cooldown = 2

	// alpha is the EWMA smoothing factor in (0, 1]: higher reacts
	// faster, lower rides out one-step noise.
	alpha = 0.5

	// weightSnap is the noise band for the derived rank weights: when
	// max/min cost stays within it, the weights snap to uniform and a
	// fired rebalance degrades to a plain re-partition.
	weightSnap = 1.5

	// weightClamp bounds each weight to [1/weightClamp, weightClamp] so
	// one pathological measurement cannot starve a rank.
	weightClamp float64 = 4
)

// Detector turns the aggregator's fence table into rebalance decisions.
// It EWMAs two per-world-rank series — the planned nnz loads (exactly
// reproducible on every rank from the deterministic plan) and the
// measured compute-phase nanoseconds — and compares the larger of the
// two coefficients of variation against the threshold. Compute time is
// used instead of total step time because a straggler inflates every
// other rank's allreduce wait: totals converge exactly when the skew is
// worst. All state is guarded by the aggregator's mutex (evaluate and
// snapshot only run under it).
type Detector struct {
	armed bool // may fire; disarmed it only suggests

	seen   []bool    // per world rank: EWMA initialised
	loadEW []float64 // per world rank: EWMA of planned nnz load
	durEW  []float64 // per world rank: EWMA of compute ns

	// Scratch sized to the world so evaluate never allocates.
	loadVals []float64
	durVals  []float64
	weights  []float64

	fence        int64 // fences evaluated
	lastFire     int64 // fence index of the last fire, -1 before any
	lastFireStep int
	suggested    int64
	fired        int64
}

func newDetector(armed bool, worldSize int) *Detector {
	return &Detector{
		armed:    armed,
		seen:     make([]bool, worldSize),
		loadEW:   make([]float64, worldSize),
		durEW:    make([]float64, worldSize),
		loadVals: make([]float64, 0, worldSize),
		durVals:  make([]float64, 0, worldSize),
		weights:  make([]float64, 0, worldSize),
		lastFire: -1,
	}
}

// evaluate folds one fence into the EWMAs and decides. members is the
// view's world-rank list, loads the matching planned per-member nnz
// loads. Called with the aggregator locked; allocation-free.
func (d *Detector) evaluate(a *Aggregator, members []int, loads []float64, step int) Decision {
	d.fence++
	d.loadVals = d.loadVals[:0]
	d.durVals = d.durVals[:0]
	for i, world := range members {
		dur := float64(a.ranks[world].computeNs)
		if !d.seen[world] {
			d.seen[world] = true
			d.loadEW[world] = loads[i]
			d.durEW[world] = dur
		} else {
			d.loadEW[world] = alpha*loads[i] + (1-alpha)*d.loadEW[world]
			d.durEW[world] = alpha*dur + (1-alpha)*d.durEW[world]
		}
		d.loadVals = append(d.loadVals, d.loadEW[world])
		d.durVals = append(d.durVals, d.durEW[world])
	}

	dec := Decision{
		LoadCV: partition.ImbalanceCV(d.loadVals),
		DurCV:  partition.ImbalanceCV(d.durVals),
	}
	dec.CV = math.Max(dec.LoadCV, dec.DurCV)
	dec.Suggested = dec.CV > threshold
	if dec.Suggested {
		d.suggested++
		if d.armed && (d.lastFire < 0 || d.fence-d.lastFire > cooldown) {
			dec.Fire = true
			d.fired++
			d.lastFire = d.fence
			d.lastFireStep = step
			dec.Weights = d.deriveWeights(members)
		}
	}
	return dec
}

// deriveWeights turns the EWMA series into partition.WeightedLPT cost
// weights: measured compute ns per planned nnz, normalised to mean 1,
// snapped to uniform inside the noise band, clamped. A rank with no
// usable signal (zero load or zero measured compute — e.g. an
// instrumentation-free run) gets weight 1. Returns detector scratch;
// callers must copy before the next evaluate.
func (d *Detector) deriveWeights(members []int) []float64 {
	w := d.weights[:0]
	sum, n := 0.0, 0
	for _, world := range members {
		c := 1.0
		if d.loadEW[world] > 0 && d.durEW[world] > 0 {
			c = d.durEW[world] / d.loadEW[world]
		}
		w = append(w, c)
		sum += c
		n++
	}
	mean := sum / float64(n)
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range w {
		w[i] /= mean
		lo = math.Min(lo, w[i])
		hi = math.Max(hi, w[i])
	}
	if hi <= lo*weightSnap {
		// Inside the noise band: a uniform-weight plan is a pure LPT
		// re-partition, which keeps the post-rebalance plan independent
		// of timing jitter.
		for i := range w {
			w[i] = 1
		}
	} else {
		for i := range w {
			w[i] = math.Min(weightClamp, math.Max(1/weightClamp, w[i]))
		}
	}
	d.weights = w
	return w
}

// snapshot exports the detector state plus the last decision's CVs.
// Called with the aggregator (at least read-)locked.
func (d *Detector) snapshot(last Decision) DetectorSnapshot {
	step := -1
	if d.lastFire >= 0 {
		step = d.lastFireStep
	}
	return DetectorSnapshot{
		Threshold:    threshold,
		Cooldown:     cooldown,
		Armed:        d.armed,
		CV:           last.CV,
		LoadCV:       last.LoadCV,
		DurCV:        last.DurCV,
		Suggested:    d.suggested,
		Fired:        d.fired,
		LastFireStep: step,
	}
}
