package cluster

// Elastic membership: views and epoch-fenced view workers.
//
// A cluster created by NewLocal or JoinTCP is the *world*: a fixed set
// of addressable rank slots (live members plus idle spares). Elastic
// operation runs on top of it through Views — epoch-numbered subsets
// of the world — and ViewWorkers, derived workers whose rank/size
// describe the view and whose message tags carry the view epoch. The
// epoch prefix is the collective fence: a straggler still finishing a
// collective of epoch e can never cross-match traffic of epoch
// e+1, because every tag (counter and stream alike) differs. This is
// the communicator-shrink-and-spawn model of MPI's ULFM, restricted to
// a fixed world so no transport-level address discovery is needed
// mid-run.
//
// Failure flows through three mechanisms that compose:
//
//   - per-sender down marks (mailbox.peerDown) with drain-then-fail
//     delivery, set by Local's elastic mode when a worker exits and by
//     the TCP heartbeat when a peer goes silent;
//   - epoch revocation (Worker.Revoke): the first rank to observe an
//     ErrPeerDown broadcasts a revoke, poisoning every survivor's
//     mailbox once so receives blocked on *live* peers of the doomed
//     epoch abort too instead of deadlocking;
//   - poison clearing (Worker.ClearFault): each survivor clears its
//     own poison before entering the membership protocol; duplicate
//     revokes for the same dead rank are no-ops, so a straggler's
//     revoke cannot poison a survivor already mid-protocol.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sort"
	"strconv"
)

// ErrNotMember reports an operation that requires view membership by a
// world rank outside the view.
var ErrNotMember = errors.New("cluster: not a member of the view")

// View is one membership generation: an epoch number plus the sorted
// world ranks that are members. Epoch 0 with members 0..M−1 is the
// static cluster every non-elastic run implicitly uses.
type View struct {
	Epoch   int64
	Members []int
}

// newView builds a view from an arbitrary member list (sorted and
// de-duplicated; membership is a set).
func newView(epoch int64, members []int) View {
	ms := append([]int(nil), members...)
	sort.Ints(ms)
	out := ms[:0]
	for i, m := range ms {
		if i == 0 || m != ms[i-1] {
			out = append(out, m)
		}
	}
	return View{Epoch: epoch, Members: out}
}

// InitialView is the epoch-0 view over world ranks 0..members−1.
func InitialView(members int) View {
	v := View{Members: make([]int, members)}
	for i := range v.Members {
		v.Members[i] = i
	}
	return v
}

// Size returns the number of members.
func (v View) Size() int { return len(v.Members) }

// Contains reports whether the world rank is a member.
func (v View) Contains(world int) bool { return v.RankOf(world) >= 0 }

// RankOf returns the view rank of a world rank, or −1 if it is not a
// member. View ranks are positions in the sorted member list, so
// surviving members keep their relative order across view changes.
func (v View) RankOf(world int) int {
	i := sort.SearchInts(v.Members, world)
	if i < len(v.Members) && v.Members[i] == world {
		return i
	}
	return -1
}

// Equal reports whether two views have the same epoch and members.
func (v View) Equal(o View) bool {
	if v.Epoch != o.Epoch || len(v.Members) != len(o.Members) {
		return false
	}
	for i, m := range v.Members {
		if o.Members[i] != m {
			return false
		}
	}
	return true
}

func (v View) String() string {
	return fmt.Sprintf("view{epoch %d, members %v}", v.Epoch, v.Members)
}

// encodeView appends a view's wire form: epoch, member count, members
// (little-endian, fixed width, like every frame the transport carries).
func encodeView(b []byte, v View) []byte {
	var w [8]byte
	binary.LittleEndian.PutUint64(w[:], uint64(v.Epoch))
	b = append(b, w[:]...)
	binary.LittleEndian.PutUint32(w[:4], uint32(len(v.Members)))
	b = append(b, w[:4]...)
	for _, m := range v.Members {
		binary.LittleEndian.PutUint32(w[:4], uint32(m))
		b = append(b, w[:4]...)
	}
	return b
}

// decodeView parses encodeView output, returning the remaining bytes.
// The member list must be strictly increasing — RankOf binary-searches
// it — so an unsorted or duplicated list is refused, not adopted.
func decodeView(b []byte) (View, []byte, error) {
	if len(b) < 12 {
		return View{}, nil, fmt.Errorf("cluster: view payload too short (%d bytes)", len(b))
	}
	v := View{Epoch: int64(binary.LittleEndian.Uint64(b))}
	n := int(binary.LittleEndian.Uint32(b[8:]))
	b = b[12:]
	if n < 0 || len(b) < 4*n {
		return View{}, nil, fmt.Errorf("cluster: truncated view member list (%d members, %d bytes)", n, len(b))
	}
	v.Members = make([]int, n)
	for i := range v.Members {
		v.Members[i] = int(binary.LittleEndian.Uint32(b[4*i:]))
		if i > 0 && v.Members[i] <= v.Members[i-1] {
			return View{}, nil, fmt.Errorf("cluster: view members %v not strictly increasing", v.Members[:i+1])
		}
	}
	return v, b[4*n:], nil
}

// ViewWorker derives a worker scoped to the view: Rank/Size are the
// view's, sends and receives transparently map view ranks to world
// ranks, and every tag carries a "v<epoch>|" prefix fencing its
// collectives from every other epoch. The derived worker shares the
// root's mailbox, buffer pool, and work accumulator, but snapshots a
// fresh metrics baseline — MetricsSnapshot on a view worker counts
// this epoch's traffic only, the same baseline+delta scoping repeated
// TCPNode.Run invocations get.
//
// Derive from the root worker only (one derivation per epoch), and use
// at most one derived worker at a time: epochs are serial by
// construction. The root worker remains valid for world-addressed
// control traffic (the membership protocol).
func (w *Worker) ViewWorker(v View) (*Worker, error) {
	if w.world != nil {
		return nil, fmt.Errorf("cluster: ViewWorker must be derived from the root worker")
	}
	me := v.RankOf(w.rank)
	if me < 0 {
		return nil, fmt.Errorf("%w: world rank %d, epoch %d", ErrNotMember, w.rank, v.Epoch)
	}
	for _, m := range v.Members {
		if m < 0 || m >= w.size {
			return nil, fmt.Errorf("cluster: view member %d outside world of %d", m, w.size)
		}
	}
	tagEpoch := w.tagEpoch + "v" + strconv.FormatInt(v.Epoch, 10) + "|"
	// Stamp the shared tracer with the new epoch: spans recorded after a
	// view change carry it, so merged cluster timelines can separate
	// pre- from post-transition work. Epochs are serial per rank, so the
	// stamp and the derived worker change together.
	w.obs.SetEpoch(v.Epoch)
	return &Worker{
		rank:         me,
		size:         v.Size(),
		mbox:         w.mbox,
		sendFn:       w.sendFn,
		metrics:      w.metrics,
		base:         w.metrics.snapshot(),
		obs:          w.obs,
		recvTimeout:  w.recvTimeout,
		tagEpoch:     tagEpoch,
		streams:      make(map[streamKey]string),
		bufs:         w.bufs,
		poolShared:   w.poolShared,
		cc:           w.cc,
		work:         w.work,
		world:        append([]int(nil), v.Members...),
		worldSelf:    w.rank,
		worldScratch: make([]int, 0, v.Size()),
	}, nil
}

// WorldRank returns the worker's rank in the world cluster — the
// stable identity that survives view changes and the one ErrPeerDown
// and the membership protocol speak.
func (w *Worker) WorldRank() int { return w.worldSelf }

// worldSize returns the world cluster's size (== Size on a root
// worker).
func (w *Worker) worldSize() int {
	if w.world == nil {
		return w.size
	}
	// The view was validated against the root's size at derivation; the
	// mailbox is world-keyed, so the root size is what Revoke needs.
	max := w.worldSelf
	for _, m := range w.world {
		if m > max {
			max = m
		}
	}
	return max + 1
}

// ClearFault clears a whole-mailbox poison left by failure detection or
// an epoch revocation, so the membership protocol can reuse the
// transport. Per-sender down marks persist: receives from dead ranks
// keep failing fast after the clear.
func (w *Worker) ClearFault() { w.mbox.clearPoison() }

// revokeTag is the reserved control tag epoch revocations travel
// under; like heartbeats it starts with a NUL byte no user tag can.
const revokeTag = "\x00rv"

func decodeRevoke(b []byte) (int, error) {
	if len(b) != 4 {
		return 0, fmt.Errorf("cluster: revoke payload of %d bytes", len(b))
	}
	return int(binary.LittleEndian.Uint32(b)), nil
}

// Revoke declares a world rank dead to the whole world: it marks the
// rank down locally (poisoning this mailbox once), then broadcasts a
// revoke message every transport intercepts at delivery, poisoning
// each recipient's mailbox once. Survivors blocked in a collective on
// *live* peers of the doomed epoch — e.g. waiting on a tree parent
// that itself waits on the dead rank — abort with the rank-attributed
// ErrPeerDown instead of deadlocking, which is what makes recovery
// reachable from any interleaving. Idempotent per dead rank; call on
// the root worker before ClearFault.
func (w *Worker) Revoke(dead int) {
	w.mbox.peerDown(dead, &ErrPeerDown{Rank: dead}, true)
	var payload [4]byte
	binary.LittleEndian.PutUint32(payload[:], uint32(dead))
	for r := 0; r < w.worldSize(); r++ {
		if r == w.worldSelf || r == dead {
			continue
		}
		// Best-effort: a rank that is itself down just fails the send.
		_ = w.sendFn(r, Message{From: w.worldSelf, Tag: revokeTag, Payload: payload[:]})
	}
}
