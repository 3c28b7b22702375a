package core

import (
	"fmt"

	"dismastd/internal/cluster"
	"dismastd/internal/dtd"
	"dismastd/internal/tensor"
)

// Session runs successive distributed steps on one persistent
// in-process cluster, so a long-lived stream — the event-granularity
// ingestion path most of all — does not rebuild the transport buffer
// pool per micro-batch. Each Step is one collective run of
// StepJob.RunWorker (the package-level Step is a session of one step).
//
// Nothing else carries over: every run builds fresh per-rank workers,
// mailboxes and observability bundles, so a step's spans and counters
// are its own (StepStats.Phases) and factors are bitwise identical to
// calling Step once per snapshot.
type Session struct {
	cl      *cluster.Local
	workers int
	steps   int
}

// NewSession returns a session over a fresh in-process cluster of the
// given size.
func NewSession(workers int) *Session {
	return &Session{cl: cluster.NewLocal(workers), workers: workers}
}

// Workers returns the cluster size every step runs on.
func (s *Session) Workers() int { return s.workers }

// Steps returns the number of completed steps.
func (s *Session) Steps() int { return s.steps }

// Step advances the decomposition from prev to the new snapshot on the
// session's cluster. o.Workers must match the session (zero adopts
// it). prev is not modified.
func (s *Session) Step(prev *dtd.State, snapshot *tensor.Tensor, o Options) (*dtd.State, *StepStats, error) {
	if o.Workers == 0 {
		o.Workers = s.workers
	}
	if o.Workers != s.workers {
		return nil, nil, fmt.Errorf("core: session of %d workers asked to step with %d", s.workers, o.Workers)
	}
	job, err := NewStepJob(prev, snapshot, o)
	if err != nil {
		return nil, nil, err
	}
	runStats, err := s.cl.Run(job.RunWorker)
	if err != nil {
		return nil, nil, err
	}
	st, stats, err := job.Result()
	if err != nil {
		return nil, nil, err
	}
	stats.Cluster = runStats
	stats.Phases = phasesOf(runStats)
	job.overrideAlgoMetrics(runStats)
	s.steps++
	return st, stats, nil
}
