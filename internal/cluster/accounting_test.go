package cluster

import (
	"bytes"
	"fmt"
	"testing"
	"time"
)

// The transport metrics charge every message its frame — wireSize,
// len(payload)+len(tag)+8 — on both the sending and receiving side. This file pins that contract
// per collective: for each operation the cluster-wide counters must
// equal the byte totals computed from the operation's exact message
// pattern — message counts from the tree/ring structure, payload sizes
// from the wire codec. Any double-count (the PR-1 recv bug), dropped
// message, or unaccounted self-send breaks the equality exactly.

// msgGroup describes one tag's traffic within a collective: how many
// messages flow cluster-wide and their summed payload bytes.
type msgGroup struct {
	tag     string
	msgs    int64
	payload int64
}

func expectedTraffic(groups []msgGroup) (bytes, msgs int64) {
	for _, g := range groups {
		bytes += g.payload + g.msgs*int64(len(g.tag)+8)
		msgs += g.msgs
	}
	return
}

func TestCollectiveByteAccounting(t *testing.T) {
	const (
		n = 25 // floats per all-reduce; odd and > M, so ring segments are uneven
		p = 40 // bytes per gather contribution
	)
	for _, m := range []int{3, 4} {
		m64 := int64(m)
		cases := []struct {
			name   string
			thresh int
			groups []msgGroup
			run    func(w *Worker) error
		}{
			{
				name:   "allreduce/tree",
				thresh: ringOff,
				groups: []msgGroup{
					{"reduce", m64 - 1, (m64 - 1) * 8 * n},    // binomial up-phase: every non-root sends once
					{"reduce/bc", m64 - 1, (m64 - 1) * 8 * n}, // binomial down-phase: every non-root receives once
				},
				run: func(w *Worker) error {
					return w.AllReduceSumInPlace(make([]float64, n))
				},
			},
			{
				name:   "allreduce/ring",
				thresh: ringOn,
				groups: []msgGroup{
					// Each of the M−1 steps moves every segment exactly once,
					// so a phase's payload is (M−1)·8n spread over M(M−1)
					// messages.
					{"reduce/rs", m64 * (m64 - 1), (m64 - 1) * 8 * n},
					{"reduce/ag", m64 * (m64 - 1), (m64 - 1) * 8 * n},
				},
				run: func(w *Worker) error {
					return w.AllReduceSumInPlace(make([]float64, n))
				},
			},
			{
				// A funnel all-gather: point-to-point sends to rank 0,
				// then a broadcast of the concatenation back.
				name:   "allgather/funnel",
				thresh: ringOff,
				groups: []msgGroup{
					{"gather", m64 - 1, (m64 - 1) * p},
					{"bcast#0", m64 - 1, (m64 - 1) * m64 * p},
				},
				run: func(w *Worker) error {
					parts := [][]byte{make([]byte, p)}
					for r := 1; r < w.Size(); r++ {
						if w.Rank() == r {
							if err := w.Send(0, w.StreamTag("gather"), parts[0]); err != nil {
								return err
							}
						} else if w.Rank() == 0 {
							b, err := w.Recv(r, w.StreamTag("gather"))
							if err != nil {
								return err
							}
							parts = append(parts, b)
						}
					}
					_, err := w.BroadcastBytes(0, bytes.Join(parts, nil))
					return err
				},
			},
			{
				name:   "scalar",
				thresh: ringOff,
				groups: []msgGroup{
					{"reduce", m64 - 1, (m64 - 1) * 8},
					{"reduce/bc", m64 - 1, (m64 - 1) * 8},
				},
				run: func(w *Worker) error {
					_, err := w.ReduceScalarSum(1)
					return err
				},
			},
			{
				name:   "barrier",
				thresh: ringOff,
				groups: []msgGroup{
					{"barrier#0", m64 - 1, 0},
					{"barrier#0/ack", m64 - 1, 0},
				},
				run: func(w *Worker) error {
					return w.Barrier()
				},
			},
		}
		for _, tc := range cases {
			t.Run(fmt.Sprintf("M=%d/%s", m, tc.name), func(t *testing.T) {
				c := NewLocal(m)
				c.SetRecvTimeout(5 * time.Second)
				c.SetRingThreshold(tc.thresh)
				stats, err := c.Run(tc.run)
				if err != nil {
					t.Fatal(err)
				}
				wantBytes, wantMsgs := expectedTraffic(tc.groups)
				var sentB, recvB, sentM, recvM int64
				for _, rk := range stats.Ranks {
					sentB += rk.BytesSent
					recvB += rk.BytesRecv
					sentM += rk.MsgsSent
					recvM += rk.MsgsRecv
				}
				if sentB != wantBytes || sentM != wantMsgs {
					t.Errorf("sent %d bytes in %d messages, want %d in %d", sentB, sentM, wantBytes, wantMsgs)
				}
				// Every byte charged to a sender must be charged to exactly
				// one receiver — a recv-side double count shows up here.
				if recvB != sentB || recvM != sentM {
					t.Errorf("recv counters (%d bytes, %d msgs) != send counters (%d bytes, %d msgs)", recvB, recvM, sentB, sentM)
				}
				if got := stats.TotalBytes(); got != wantBytes {
					t.Errorf("TotalBytes = %d, want %d", got, wantBytes)
				}
				if got := stats.TotalMessages(); got != wantMsgs {
					t.Errorf("TotalMessages = %d, want %d", got, wantMsgs)
				}
			})
		}
	}
}
