package cluster

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"dismastd/internal/xrand"
)

// ringOn forces every collective onto the ring path; ringOff pins the
// tree path regardless of payload size.
const (
	ringOn  = 1
	ringOff = -1
)

func runLocalAt(t *testing.T, size, ringThresh int, fn func(*Worker) error) *RunStats {
	t.Helper()
	c := NewLocal(size)
	c.SetRecvTimeout(5 * time.Second)
	c.SetRingThreshold(ringThresh)
	stats, err := c.Run(fn)
	if err != nil {
		t.Fatal(err)
	}
	return stats
}

// TestAllReduceRingExactAtOddSizes checks the ring all-reduce computes
// the exact sum at non-power-of-two sizes, including vector lengths
// that do not divide evenly into segments. Integer-valued payloads make
// the expected sum exact in float64, so the comparison is bitwise.
func TestAllReduceRingExactAtOddSizes(t *testing.T) {
	for _, m := range []int{3, 5, 7} {
		for _, n := range []int{m, 101, 1024} {
			t.Run(fmt.Sprintf("M=%d/n=%d", m, n), func(t *testing.T) {
				want := make([]float64, n)
				for i := range want {
					for r := 0; r < m; r++ {
						want[i] += float64(r*1000 + i)
					}
				}
				for _, thresh := range []int{ringOn, ringOff} {
					runLocalAt(t, m, thresh, func(w *Worker) error {
						vec := make([]float64, n)
						for i := range vec {
							vec[i] = float64(w.Rank()*1000 + i)
						}
						if err := w.AllReduceSumInPlace(vec); err != nil {
							return err
						}
						for i := range vec {
							if vec[i] != want[i] {
								return fmt.Errorf("thresh %d rank %d elem %d: got %v want %v", thresh, w.Rank(), i, vec[i], want[i])
							}
						}
						return nil
					})
				}
			})
		}
	}
}

// TestAllReduceRingDeterministic pins the ring path's reproducibility
// contract: with irrational inputs whose summation order matters, every
// rank observes identical bits within a run, and repeated runs at the
// same cluster size reproduce them exactly.
func TestAllReduceRingDeterministic(t *testing.T) {
	const m, n = 5, 97
	run := func() [][]byte {
		results := make([][]byte, m)
		runLocalAt(t, m, ringOn, func(w *Worker) error {
			src := xrand.New(uint64(w.Rank()) + 7)
			vec := make([]float64, n)
			for i := range vec {
				vec[i] = src.Float64()*2 - 1
			}
			if err := w.AllReduceSumInPlace(vec); err != nil {
				return err
			}
			results[w.Rank()] = EncodeFloat64s(vec)
			return nil
		})
		return results
	}
	first := run()
	for r := 1; r < m; r++ {
		if !bytes.Equal(first[0], first[r]) {
			t.Fatalf("rank %d observed different bits than rank 0", r)
		}
	}
	second := run()
	for r := 0; r < m; r++ {
		if !bytes.Equal(first[r], second[r]) {
			t.Fatalf("rank %d: repeated run produced different bits", r)
		}
	}
}

// TestCollectivesMixedAtOddSizesTCP drives the tree and ring paths over
// the TCP transport at non-power-of-two sizes: an all-reduce, a
// broadcast from a rotating root, a scalar reduction, and a barrier per
// round.
func TestCollectivesMixedAtOddSizesTCP(t *testing.T) {
	for _, m := range []int{3, 5} {
		for _, thresh := range []int{ringOn, ringOff} {
			t.Run(fmt.Sprintf("M=%d/thresh=%d", m, thresh), func(t *testing.T) {
				nodes := startTCPCluster(t, m)
				for _, n := range nodes {
					n.SetRingThreshold(thresh)
				}
				const vecLen = 33
				runTCP(t, nodes, func(w *Worker) error {
					for round := 0; round < 3; round++ {
						vec := make([]float64, vecLen)
						for i := range vec {
							vec[i] = float64(w.Rank() + round + i)
						}
						if err := w.AllReduceSumInPlace(vec); err != nil {
							return err
						}
						for i := range vec {
							want := float64(m*(round+i)) + float64(m*(m-1)/2)
							if vec[i] != want {
								return fmt.Errorf("round %d elem %d: got %v want %v", round, i, vec[i], want)
							}
						}
						root := round % m
						got, err := w.BroadcastBytes(root, []byte{byte(w.Rank()), byte(round)})
						if err != nil {
							return err
						}
						if len(got) != 2 || got[0] != byte(root) || got[1] != byte(round) {
							return fmt.Errorf("round %d: broadcast from %d delivered %v", round, root, got)
						}
						total, err := w.ReduceScalarSum(float64(w.Rank() + 1))
						if err != nil {
							return err
						}
						if want := float64(m * (m + 1) / 2); total != want {
							return fmt.Errorf("round %d: scalar sum %v, want %v", round, total, want)
						}
						if err := w.Barrier(); err != nil {
							return err
						}
					}
					return nil
				})
			})
		}
	}
}

// TestCollectivePathSelection pins the threshold logic: small payloads
// keep the tree (preserving the existing goldens), large ones
// take the ring, and the selection counters record which fired.
func TestCollectivePathSelection(t *testing.T) {
	const m = 4
	stats := runLocalAt(t, m, DefaultRingThreshold, func(w *Worker) error {
		small := make([]float64, 27)   // 216 B — a Gram batch at R=3
		large := make([]float64, 1024) // 8 KiB
		if err := w.AllReduceSumInPlace(small); err != nil {
			return err
		}
		return w.AllReduceSumInPlace(large)
	})
	for r, rk := range stats.Ranks {
		c := rk.Obs.Metrics.Counters
		for name, want := range map[string]int64{
			"comm.allreduce.tree": 1,
			"comm.allreduce.ring": 1,
		} {
			if c[name] != want {
				t.Errorf("rank %d: %s = %d, want %d", r, name, c[name], want)
			}
		}
	}
}

// TestCommBufferPoolSteadyState checks the comm-buffer arena reaches a
// steady state: across many all-reduce rounds the pool misses stay at
// the warm-up level instead of growing with traffic.
func TestCommBufferPoolSteadyState(t *testing.T) {
	const m, rounds = 4, 100
	c := NewLocal(m)
	c.SetRingThreshold(ringOn) // ring: the heaviest pooled-buffer traffic
	stats, err := c.Run(func(w *Worker) error {
		vec := make([]float64, 256)
		for i := 0; i < rounds; i++ {
			vec[0] = float64(i)
			if err := w.AllReduceSumInPlace(vec); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	gets, misses := c.pool.stats()
	if gets < int64(rounds) {
		t.Fatalf("pool saw only %d gets over %d rounds", gets, rounds)
	}
	// Each rank needs at most a few in-flight buffers; every miss past
	// the first rounds would mean the pool is leaking instead of
	// recycling.
	if limit := int64(8 * m); misses > limit {
		t.Errorf("pool missed %d of %d gets, want <= %d (buffers not recycling)", misses, gets, limit)
	}
	for r, rk := range stats.Ranks {
		cc := rk.Obs.Metrics.Counters
		if cc["comm.pool.gets"] == 0 {
			t.Errorf("rank %d recorded no pool gets", r)
		}
		if cc["comm.pool.misses"] > 8 {
			t.Errorf("rank %d: %d pool misses, want warm-up only", r, cc["comm.pool.misses"])
		}
	}
}

// TestRecvAnyArrivalOrder checks RecvAny consumes whichever pending
// peer delivers first (no head-of-line blocking on the slow one), and
// that only FIFO heads are eligible: a peer two operations ahead is
// consumed once per round, in order.
func TestRecvAnyArrivalOrder(t *testing.T) {
	c := NewLocal(3)
	c.SetRecvTimeout(5 * time.Second)
	if _, err := c.Run(func(w *Worker) error {
		const tag = "t"
		switch w.Rank() {
		case 1: // slow peer
			time.Sleep(150 * time.Millisecond)
			return w.Send(0, tag, []byte{1})
		case 2: // fast peer, already two messages ahead
			if err := w.Send(0, tag, []byte{2, 0}); err != nil {
				return err
			}
			return w.Send(0, tag, []byte{2, 1})
		}
		pending := []int{1, 2}
		i, payload, err := w.RecvAny(tag, pending)
		if err != nil {
			return err
		}
		if pending[i] != 2 || len(payload) != 2 || payload[1] != 0 {
			return fmt.Errorf("first receive got rank %d payload %v, want rank 2's first message", pending[i], payload)
		}
		// Rank 2's second message must not double-fill the round: after
		// removing rank 2, only rank 1 remains eligible.
		i, payload, err = w.RecvAny(tag, pending[:1])
		if err != nil {
			return err
		}
		if pending[i] != 1 || len(payload) != 1 {
			return fmt.Errorf("second receive got rank %d payload %v, want rank 1", pending[i], payload)
		}
		// And rank 2's queued second message is still there, in order.
		_, payload, err = w.RecvAny(tag, []int{2})
		if err != nil {
			return err
		}
		if len(payload) != 2 || payload[1] != 1 {
			return fmt.Errorf("third receive got %v, want rank 2's second message", payload)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestStreamTagStability checks stream tags are cached (same string
// value per stream, epoch-prefixed on TCP reruns) and distinct across
// streams and indices.
func TestStreamTagStability(t *testing.T) {
	runLocalAt(t, 1, ringOff, func(w *Worker) error {
		a, b := w.StreamTag("reduce"), w.StreamTag("reduce")
		if a != b {
			return fmt.Errorf("stream tag changed between calls: %q vs %q", a, b)
		}
		if w.StreamTagIndexed("rows", 0) == w.StreamTagIndexed("rows", 1) {
			return fmt.Errorf("indexed streams collide")
		}
		if w.StreamTag("reduce") == w.StreamTag("reduce/rs") {
			return fmt.Errorf("streams collide")
		}
		return nil
	})
}

// TestReduceScalarSumScratch guards the persistent scalar scratch: the
// reduction must not retain state across calls.
func TestReduceScalarSumScratch(t *testing.T) {
	runLocalAt(t, 3, ringOff, func(w *Worker) error {
		for i := 0; i < 4; i++ {
			got, err := w.ReduceScalarSum(float64(i))
			if err != nil {
				return err
			}
			if want := float64(3 * i); got != want {
				return fmt.Errorf("round %d: got %v want %v", i, got, want)
			}
		}
		return nil
	})
}
