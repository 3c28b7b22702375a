package cluster

// The membership protocol: how a world of rank slots agrees on the
// next view after deaths, drains, and joins.
//
// Every agreement between steps is one Round, and view agreement is
// one of them, run on root (world-addressed) workers over reserved
// NUL-prefixed control tags suffixed with the epoch being agreed, so
// concurrent or stale transitions can never cross-match:
//
//  1. every surviving member of the current view sends its proposal —
//     the ViewChange, then the step it would restart — to the
//     coordinator, the lowest world rank that is a member of both the
//     current and the next view;
//  2. the coordinator checks the view changes are identical (the
//     failure detector gave everyone the same evidence; see the
//     limitation below), takes the least step, and broadcasts the
//     agreed view with that step;
//  3. the coordinator then sends joiners, who cannot know the current
//     epoch, the same view and step, which AwaitAdopt returns.
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
	"encoding/binary"
	"fmt"
	"slices"
)

// Round is the one coordinator round — gather, decide, broadcast — of
// every between-steps agreement. Each peer sends its payload (a buffer
// the round takes over; GetBuf keeps the round allocation-free) to
// coord under tag. The coordinator, which folds its own contribution in
// beforehand and passes a nil payload, hands the payloads to absorb in
// arrival order — absorb must not keep them — then sends every peer, in
// peers order, the bytes decide returns under dtag. peers lists the
// participants but coord in w's rank space and is not modified. Every
// participant, the coordinator too, gets the decision back as a pooled
// buffer to release with PutBuf once decoded.
func Round(w *Worker, coord int, peers []int, tag, dtag string, payload []byte,
	absorb func(from int, payload []byte) error, decide func() []byte) ([]byte, error) {
	if w.Rank() != coord {
		if err := w.SendPooled(coord, tag, payload); err != nil {
			return nil, err
		}
		return w.Recv(coord, dtag)
	}
	w.pending = append(w.pending[:0], peers...)
	for pending := w.pending; len(pending) > 0; {
		i, in, err := w.RecvAny(tag, pending)
		if err != nil {
			return nil, err
		}
		err = absorb(pending[i], in)
		w.PutBuf(in)
		if err != nil {
			return nil, err
		}
		pending = slices.Delete(pending, i, i+1)
	}
	dec := decide()
	for _, r := range peers {
		buf := w.GetBuf(len(dec))
		copy(buf, dec)
		if err := w.SendPooled(r, dtag, buf); err != nil {
			return nil, err
		}
	}
	out := w.GetBuf(len(dec))
	copy(out, dec)
	return out, nil
}

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

// apply returns the next view: cur minus Dead and Leave, plus Join,
// with the epoch bumped.
func (vc ViewChange) apply(cur View) View {
	members := slices.Clone(vc.Join)
	for _, m := range cur.Members {
		if !slices.Contains(vc.Dead, m) && !slices.Contains(vc.Leave, m) {
			members = append(members, m)
		}
	}
	return newView(cur.Epoch+1, members)
}

func (vc ViewChange) equal(o ViewChange) bool {
	return slices.Equal(vc.Dead, o.Dead) && slices.Equal(vc.Leave, o.Leave) && slices.Equal(vc.Join, o.Join)
}

func encodeRankList(b []byte, list []int) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(list)))
	for _, r := range list {
		b = binary.LittleEndian.AppendUint32(b, uint32(r))
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

// encodeProposal is a survivor's view proposal: the change's three rank
// lists, then the step it would restart as a u64.
func encodeProposal(vc ViewChange, step int) []byte {
	b := make([]byte, 0, 20+4*(len(vc.Dead)+len(vc.Leave)+len(vc.Join)))
	b = encodeRankList(encodeRankList(encodeRankList(b, vc.Dead), vc.Leave), vc.Join)
	return binary.LittleEndian.AppendUint64(b, uint64(step))
}

func decodeProposal(b []byte) (vc ViewChange, step int, err error) {
	for _, list := range []*[]int{&vc.Dead, &vc.Leave, &vc.Join} {
		if *list, b, err = decodeRankList(b); err != nil {
			return ViewChange{}, 0, err
		}
	}
	if len(b) != 8 {
		return ViewChange{}, 0, fmt.Errorf("cluster: proposal with %d bytes after the view change, want 8", len(b))
	}
	return vc, int(int64(binary.LittleEndian.Uint64(b))), nil
}

// coordinator returns the world rank that coordinates the transition
// cur→next: the lowest continuing member, who by construction is alive
// on both sides. −1 when no member continues (a full replacement,
// which the protocol does not support).
func coordinator(cur, next View) int {
	for _, m := range next.Members {
		if cur.Contains(m) {
			return m
		}
	}
	return -1
}

// AgreeView runs one view transition. Every member of cur except the
// dead ranks must call it with the same cur and vc (derived from the
// same failure evidence or the same fence broadcast) and the step it
// would restart; it returns the agreed next view and the least step
// proposed. Joiners do not call AgreeView: the coordinator sends them
// that view and step, which AwaitAdopt returns. Call on the root
// worker, after Revoke/ClearFault when recovering from a failure.
func AgreeView(w *Worker, cur View, vc ViewChange, step int) (View, int, error) {
	if w.world != nil {
		return View{}, 0, fmt.Errorf("cluster: AgreeView needs the root worker")
	}
	me := w.WorldRank()
	if !cur.Contains(me) || slices.Contains(vc.Dead, me) {
		return View{}, 0, fmt.Errorf("%w: world rank %d in %v", ErrNotMember, me, cur)
	}
	for _, r := range slices.Concat(vc.Dead, vc.Leave) {
		if !cur.Contains(r) {
			return View{}, 0, fmt.Errorf("cluster: dead or leaving rank %d not in %v", r, cur)
		}
	}
	for _, j := range vc.Join {
		if cur.Contains(j) || j < 0 || j >= w.Size() {
			return View{}, 0, fmt.Errorf("cluster: joining rank %d is no spare of %v in a world of %d", j, cur, w.Size())
		}
	}
	next := vc.apply(cur)
	coord := coordinator(cur, next)
	if coord < 0 {
		return View{}, 0, fmt.Errorf("cluster: no continuing member to coordinate %v -> %v", cur, next)
	}
	var peers []int
	for _, m := range cur.Members {
		if m != coord && !slices.Contains(vc.Dead, m) {
			peers = append(peers, m)
		}
	}
	var proposal []byte
	if me != coord {
		proposal = encodeProposal(vc, step)
	}
	least := step
	absorb := func(from int, p []byte) error {
		got, s, err := decodeProposal(p)
		if err != nil || !got.equal(vc) {
			return fmt.Errorf("cluster: rank %d proposed a different view change for epoch %d", from, next.Epoch)
		}
		least = min(least, s)
		return nil
	}
	decide := func() []byte { return encodeAdopt(next, int64(least)) }
	out, err := Round(w, coord, peers, fmt.Sprintf("%s|%d", proposeTag, next.Epoch),
		fmt.Sprintf("%s|%d", agreedTag, next.Epoch), proposal, absorb, decide)
	if err != nil {
		return View{}, 0, err
	}
	got, agreed, err := decodeAdopt(out)
	w.PutBuf(out)
	if err != nil {
		return View{}, 0, err
	}
	if !got.Equal(next) {
		return View{}, 0, fmt.Errorf("cluster: coordinator agreed on %v, expected %v", got, next)
	}
	if me == coord {
		for _, j := range vc.Join {
			if err := w.Send(j, adoptTag, encodeAdopt(next, agreed)); err != nil {
				return View{}, 0, err
			}
		}
	}
	return next, int(agreed), nil
}

// encodeAdopt is the agreed-view payload peers and joiners receive: the
// view, then the step as a u64.
func encodeAdopt(v View, step int64) []byte {
	return binary.LittleEndian.AppendUint64(encodeView(nil, v), uint64(step))
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
// returning the view and the step its members agreed. A spare cannot
// know which ranks have died while it idled, so down-marked senders are
// skipped rather than failed on, and a whole-mailbox poison (an epoch
// revocation rippling past) is cleared and retried — bounded by the
// world size, since each dead rank can poison at most once.
func AwaitAdopt(w *Worker) (View, int64, error) {
	others := make([]int, 0, w.Size()-1)
	for r := 0; r < w.Size(); r++ {
		if r != w.WorldRank() {
			others = append(others, r)
		}
	}
	for attempt := 0; ; attempt++ {
		_, payload, err := w.recvAny(adoptTag, others, false)
		if err != nil {
			if _, down := AsPeerDown(err); down && attempt < w.Size() {
				w.ClearFault()
				continue
			}
			return View{}, 0, err
		}
		// A revocation may have poisoned the mailbox while the adopt sat
		// queued behind it (receives drain the queue first). Every
		// survivor revokes before proposing and the coordinator adopts
		// only after every proposal, so the old epoch's revocations have
		// all landed: clear them rather than fail the first new-epoch
		// receive on stale poison.
		w.ClearFault()
		return decodeAdopt(payload)
	}
}
