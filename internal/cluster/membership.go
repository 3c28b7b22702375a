package cluster

// The membership protocol: how a world of rank slots agrees on the
// next view after deaths, drains, and joins.
//
// The protocol is coordinator-led and runs on root (world-addressed)
// workers over reserved NUL-prefixed control tags, each suffixed with
// the epoch being agreed so concurrent or stale transitions can never
// cross-match:
//
//  1. every surviving member of the current view sends its proposed
//     ViewChange to the coordinator — the lowest world rank that is a
//     member of both the current and the next view;
//  2. the coordinator checks the proposals are identical (the failure
//     detector gave everyone the same evidence; see the limitation
//     below) and broadcasts the agreed view back;
//  3. joiners, who cannot know the current epoch, are informed
//     separately by SendAdopt/AwaitAdopt carrying the view plus an
//     application cookie (the elastic driver uses it for the snapshot
//     step the joiner must enter at).
//
// Which ranks join or drain, and when, is not negotiated here: every
// rank derives the same ViewChange from a shared script (the elastic
// driver's JoinAtStep/DrainAtStep), so a spare only waits in
// AwaitAdopt and a drainer only takes part in the transition.
//
// Limitation (documented, by design): proposal agreement substitutes
// for consensus. Survivors that disagree on the failure evidence —
// e.g. two concurrent deaths observed in different orders — fail the
// transition instead of resolving it; the driver surfaces the error.
// DisMASTD's recovery story needs view agreement only between snapshot
// steps and sweeps, where evidence has quiesced, so a full consensus
// round (Raft et al.) would buy nothing for this reproduction.

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// Reserved control tags (NUL-prefixed like heartbeats, so no user tag
// can collide).
const (
	adoptTag   = "\x00adopt"
	proposeTag = "\x00vc"   // + "|<epoch>"
	agreedTag  = "\x00view" // + "|<epoch>"
)

// ViewChange is the membership delta one transition applies: ranks
// that died (crashed — unreachable, excluded from the protocol), ranks
// that leave gracefully (drained — they participate in the transition,
// then exit), and ranks that join from the spare pool.
type ViewChange struct {
	Dead  []int
	Leave []int
	Join  []int
}

// Empty reports a no-op change.
func (vc ViewChange) Empty() bool {
	return len(vc.Dead) == 0 && len(vc.Leave) == 0 && len(vc.Join) == 0
}

// Apply returns the next view: cur minus Dead and Leave, plus Join,
// with the epoch bumped.
func (vc ViewChange) Apply(cur View) View {
	members := make([]int, 0, len(cur.Members)+len(vc.Join))
	for _, m := range cur.Members {
		if !containsRank(vc.Dead, m) && !containsRank(vc.Leave, m) {
			members = append(members, m)
		}
	}
	members = append(members, vc.Join...)
	return NewView(cur.Epoch+1, members)
}

func containsRank(list []int, r int) bool {
	for _, x := range list {
		if x == r {
			return true
		}
	}
	return false
}

func encodeRankList(b []byte, list []int) []byte {
	var w [4]byte
	binary.LittleEndian.PutUint32(w[:], uint32(len(list)))
	b = append(b, w[:]...)
	for _, r := range list {
		binary.LittleEndian.PutUint32(w[:], uint32(r))
		b = append(b, w[:]...)
	}
	return b
}

func decodeRankList(b []byte) ([]int, []byte, error) {
	if len(b) < 4 {
		return nil, nil, fmt.Errorf("cluster: truncated rank list")
	}
	n := int(binary.LittleEndian.Uint32(b))
	b = b[4:]
	if len(b) < 4*n {
		return nil, nil, fmt.Errorf("cluster: rank list of %d entries in %d bytes", n, len(b))
	}
	list := make([]int, n)
	for i := range list {
		list[i] = int(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return list, b[4*n:], nil
}

func encodeViewChange(vc ViewChange) []byte {
	b := make([]byte, 0, 12+4*(len(vc.Dead)+len(vc.Leave)+len(vc.Join)))
	b = encodeRankList(b, vc.Dead)
	b = encodeRankList(b, vc.Leave)
	b = encodeRankList(b, vc.Join)
	return b
}

// Coordinator returns the world rank that coordinates the transition
// cur→next: the lowest continuing member, who by construction is alive
// on both sides. −1 when no member continues (a full replacement,
// which the protocol does not support).
func Coordinator(cur, next View) int {
	for _, m := range next.Members {
		if cur.Contains(m) {
			return m
		}
	}
	return -1
}

// AgreeView runs one view transition. Every member of cur except the
// dead ranks must call it with the same cur and vc (derived from the
// same failure evidence or the same fence broadcast); it returns the
// agreed next view. Joiners do not call AgreeView — the caller's
// coordinator informs them with SendAdopt. Call on the root worker,
// after Revoke/ClearFault when recovering from a failure.
func AgreeView(w *Worker, cur View, vc ViewChange) (View, error) {
	if w.world != nil {
		return View{}, fmt.Errorf("cluster: AgreeView needs the root worker")
	}
	me := w.WorldRank()
	if !cur.Contains(me) || containsRank(vc.Dead, me) {
		return View{}, fmt.Errorf("%w: world rank %d in %v", ErrNotMember, me, cur)
	}
	for _, d := range vc.Dead {
		if !cur.Contains(d) {
			return View{}, fmt.Errorf("cluster: dead rank %d not in %v", d, cur)
		}
	}
	for _, l := range vc.Leave {
		if !cur.Contains(l) {
			return View{}, fmt.Errorf("cluster: leaving rank %d not in %v", l, cur)
		}
	}
	for _, j := range vc.Join {
		if cur.Contains(j) {
			return View{}, fmt.Errorf("cluster: joining rank %d already in %v", j, cur)
		}
		if j < 0 || j >= w.Size() {
			return View{}, fmt.Errorf("cluster: joining rank %d outside world of %d", j, w.Size())
		}
	}
	next := vc.Apply(cur)
	if next.Size() == 0 {
		return View{}, fmt.Errorf("cluster: view change empties the cluster")
	}
	coord := Coordinator(cur, next)
	if coord < 0 {
		return View{}, fmt.Errorf("cluster: no continuing member to coordinate %v -> %v", cur, next)
	}
	propose := fmt.Sprintf("%s|%d", proposeTag, next.Epoch)
	agreed := fmt.Sprintf("%s|%d", agreedTag, next.Epoch)
	proposal := encodeViewChange(vc)

	if me != coord {
		if err := w.Send(coord, propose, proposal); err != nil {
			return View{}, err
		}
		payload, err := w.Recv(coord, agreed)
		if err != nil {
			return View{}, err
		}
		got, _, err := decodeView(payload)
		if err != nil {
			return View{}, err
		}
		if !got.Equal(next) {
			return View{}, fmt.Errorf("cluster: coordinator agreed on %v, expected %v", got, next)
		}
		return next, nil
	}

	// Coordinator: collect and validate every survivor's proposal, then
	// publish the agreed view.
	for _, m := range cur.Members {
		if m == me || containsRank(vc.Dead, m) {
			continue
		}
		payload, err := w.Recv(m, propose)
		if err != nil {
			return View{}, fmt.Errorf("cluster: collecting proposal from %d: %w", m, err)
		}
		if !bytes.Equal(payload, proposal) {
			return View{}, fmt.Errorf("cluster: rank %d proposed a different view change for epoch %d", m, next.Epoch)
		}
	}
	out := encodeView(nil, next)
	for _, m := range cur.Members {
		if m == me || containsRank(vc.Dead, m) {
			continue
		}
		if err := w.Send(m, agreed, out); err != nil {
			return View{}, err
		}
	}
	return next, nil
}

// SendAdopt informs a joiner of the view it was admitted to, plus an
// application cookie (the elastic driver sends the snapshot step the
// joiner enters at). Coordinator-side counterpart of AwaitAdopt.
func SendAdopt(w *Worker, to int, v View, cookie int64) error {
	return w.Send(to, adoptTag, encodeAdopt(v, cookie))
}

// encodeAdopt is the adopt payload: the view, then the cookie as a u64.
func encodeAdopt(v View, cookie int64) []byte {
	return binary.LittleEndian.AppendUint64(encodeView(nil, v), uint64(cookie))
}

func decodeAdopt(b []byte) (View, int64, error) {
	v, rest, err := decodeView(b)
	if err != nil {
		return View{}, 0, err
	}
	if len(rest) != 8 {
		return View{}, 0, fmt.Errorf("cluster: adopt payload with %d bytes after the view, want 8", len(rest))
	}
	return v, int64(binary.LittleEndian.Uint64(rest)), nil
}

// AwaitAdopt blocks until a coordinator admits this rank to a view,
// returning the view and the cookie. A spare cannot know which ranks
// have died while it idled, so down-marked senders are skipped rather
// than failed on, and a whole-mailbox poison (an epoch revocation
// rippling past) is cleared and retried — bounded by the world size,
// since each dead rank can poison at most once.
func AwaitAdopt(w *Worker) (View, int64, error) {
	others := make([]int, 0, w.Size()-1)
	for r := 0; r < w.Size(); r++ {
		if r != w.WorldRank() {
			others = append(others, r)
		}
	}
	for attempt := 0; ; attempt++ {
		_, payload, err := w.RecvAnyAlive(adoptTag, others)
		if err != nil {
			if _, down := AsPeerDown(err); down && attempt < w.Size() {
				w.ClearFault()
				continue
			}
			return View{}, 0, err
		}
		v, cookie, err := decodeAdopt(payload)
		if err != nil {
			return View{}, 0, err
		}
		// A revocation may have poisoned the mailbox while the adopt sat
		// queued behind it (receives drain the queue before reporting
		// faults). Every survivor revokes before proposing and the
		// coordinator adopts only after collecting all proposals, so by
		// the time the adopt is readable the old epoch's revocations have
		// all landed — clear them rather than fail the first new-epoch
		// receive on stale poison.
		w.ClearFault()
		return v, cookie, nil
	}
}
