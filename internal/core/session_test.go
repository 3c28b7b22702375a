package core

import (
	"testing"

	"dismastd/internal/partition"
	"dismastd/internal/tensor"
)

// TestSessionMatchesStepBitwise drives a snapshot sequence through one
// persistent Session and through per-snapshot Step calls: the factors
// must agree bitwise at every step — the invariant that lets the
// event path reuse a session at micro-batch granularity without
// perturbing the bulk path's goldens.
func TestSessionMatchesStepBitwise(t *testing.T) {
	full := sparseRandom([]int{24, 20, 16}, 1200, 3)
	seq, err := tensor.NewSequence(full, [][]int{{18, 15, 12}, {21, 18, 14}, {24, 20, 16}})
	if err != nil {
		t.Fatal(err)
	}
	prev := initState(t, seq.Snapshot(0), 3, 5)
	sess := NewSession(3)
	sessState, stepState := prev, prev
	for i := 1; i < seq.Len(); i++ {
		opts := Options{Rank: 3, MaxIters: 4, Tol: 0, Workers: 3, Method: partition.MTPMethod, Seed: uint64(7 + i)}
		got, _, err := sess.Step(sessState, seq.Snapshot(i), opts)
		if err != nil {
			t.Fatalf("session step %d: %v", i, err)
		}
		want, _, err := Step(stepState, seq.Snapshot(i), opts)
		if err != nil {
			t.Fatalf("one-shot step %d: %v", i, err)
		}
		if d := relDiff(got.Factors, want.Factors); d != 0 {
			t.Fatalf("step %d: session factors differ from one-shot Step by %v", i, d)
		}
		sessState, stepState = got, want
	}
	if sess.Steps() != seq.Len()-1 {
		t.Fatalf("session counted %d steps, want %d", sess.Steps(), seq.Len()-1)
	}
}

// TestSessionRejectsWorkerMismatch: a session is sized once; asking it
// to run a differently sized step is an error, not a silent resize.
func TestSessionRejectsWorkerMismatch(t *testing.T) {
	full := sparseRandom([]int{10, 8, 6}, 200, 2)
	prev := initState(t, full.Prefix([]int{8, 6, 5}), 2, 1)
	sess := NewSession(2)
	if _, _, err := sess.Step(prev, full, Options{Rank: 2, MaxIters: 2, Workers: 3}); err == nil {
		t.Fatal("mismatched worker count did not error")
	}
}
