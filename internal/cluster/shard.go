package cluster

// The sharded instance engine: instead of one goroutine (plus a 256-slot
// inbox) per consensus instance, the node runs a fixed pool of shard event
// loops, each owning the instances whose id hashes to it (id % shards) and
// draining one bounded inbox. Admission appends an instance's Start and
// connection readers append accepted protocol messages to the owning shard's
// inbox, and the shard loop makes every protocol call — Start, backlog
// replay, self-send draining, Deliver — in inbox order, so mpnet's
// single-threaded-protocol contract holds per instance exactly as it did
// with a dedicated goroutine. The steady-state cost of an idle instance
// drops from a goroutine stack plus a 4 KiB channel to a map entry, and the
// node's goroutine count is O(shards + peers) instead of O(instances).
//
// Hand-offs are per frame, not per message: a reader appends a whole frame's
// messages inside the shard critical section placeFrame already holds, wakes
// the loop once when the frame is done, and the loop swaps the entire inbox
// out and processes it without touching the lock again.
//
// Each shard is also its ids' whole registry — live, archived, retired — so
// admitting, placing and evicting take no node-wide lock.
//
// Retired ids live in one window (window.go) per id namespace — the top bit
// splits ctl ids from ACS votes — at position id / S. Ids rise monotonically
// within W = dedupWindow: a Start more than W above the watermark expires
// the ids it passes (expireLocked).
//
// Lock order (outermost first): peerSeen.mu, then shard.mu. Instance locks
// (instance.mu) are only ever taken with neither held. Nobody blocks while
// holding shard.mu: a reader that finds the inbox full waits outside every
// lock, which stalls only that connection (backpressure the retransmit
// layer rides out), never a lock holder.

import (
	"fmt"
	"sync"

	"kset/internal/obs"
	"kset/internal/types"
	"kset/internal/wire"
)

// shardMailboxDepth bounds the events queued between the connection readers
// and one shard loop. The old engine spent 256 slots per instance;
// one shared 4096-event inbox per shard serves thousands of instances in far
// less memory. A reader checks the bound once per frame, after appending it,
// so the inbox can exceed the bound by at most one frame per peer connection
// (batchMsgsPerFrame messages from this node's writers, wire.MaxBatchMsgs
// from any peer); the kset_shard_mailbox_depth gauge exposes the occupancy so
// a stalled shard is visible on /metrics.
const shardMailboxDepth = 4096

// maxArchived bounds the archive of decided tables kept so controllers can
// still pull and verify an instance after its live state is gone: each of
// the S shards keeps its ⌈maxArchived/S⌉ most recent evictions in a ring.
const maxArchived = 1 << 12

// shardEvent is one event awaiting its shard loop: an instance's Start
// (from == startEvent) or a remote protocol message.
type shardEvent struct {
	inst    *instance
	from    types.ProcessID
	payload types.Payload
}

// startEvent is the sender of a Start event; no process has a negative id.
const startEvent types.ProcessID = -1

// archivedTable is an evicted instance's final table: its own rows, frozen.
type archivedTable struct {
	id   uint64
	k, t int
	rows []wire.TableRow
}

// shard owns the instances whose id maps to it and runs their protocol code
// on one loop goroutine.
type shard struct {
	node *Node
	idx  int

	mu        sync.Mutex
	instances map[uint64]*instance       // live instances owned by this shard
	pending   map[uint64][]wire.BatchMsg // frames for instances not started yet
	pendingN  int                        // frames in pending, bounded by maxPendingFrames
	ring      []archivedTable            // the latest archCap evictions' tables, grown on use
	head      int                        // the next slot to write: the oldest table once full
	archCap   int
	ids       [2]window    // retired ids per namespace (id>>63), at id / S
	ctlTop    uint64       // the highest ctl position admitted (liveCtlLocked)
	inbox     []shardEvent // starts and protocol deliveries awaiting the loop
	// drained, while non-nil, is closed by the loop's next inbox swap: a
	// reader that found the inbox at the bound waits on it.
	drained chan struct{}

	// wake (capacity 1) tells the loop there is work in the inbox: a start,
	// or a frame a reader finished appending. Consumed only by the loop.
	wake chan struct{}

	// depth is the inbox length, set on every append and every swap
	// (kset_shard_mailbox_depth{shard="i"}); pendingDepth is pendingN
	// (kset_shard_pending_frames{shard="i"}).
	depth        *obs.Gauge
	pendingDepth *obs.Gauge
}

func newShard(n *Node, idx, count int) *shard {
	return &shard{
		node:      n,
		idx:       idx,
		instances: make(map[uint64]*instance),
		pending:   make(map[uint64][]wire.BatchMsg),
		archCap:   (maxArchived + count - 1) / count,
		ids:       [2]window{{}, {next: 1 << 63 / uint64(count)}}, // ACS positions start at the bit's
		wake:      make(chan struct{}, 1),
		depth:     n.reg.Gauge(fmt.Sprintf(`kset_shard_mailbox_depth{shard="%d"}`, idx)),

		pendingDepth: n.reg.Gauge(fmt.Sprintf(`kset_shard_pending_frames{shard="%d"}`, idx)),
	}
}

// shardFor maps an instance id to its owning shard.
func (n *Node) shardFor(id uint64) *shard {
	return n.shards[id%uint64(len(n.shards))]
}

// idWindow returns the window of id's namespace on this shard and id's
// position in it; the id is retired (completed or expired) if it is a member.
func (sh *shard) idWindow(id uint64) (*window, uint64) {
	return &sh.ids[id>>63], id / uint64(len(sh.node.shards))
}

// expireLocked slides id's window up to make id its top position when id
// lies beyond the ring. Each ring id passed without completing expires: it
// is counted, its frames are dropped and a live instance there is returned
// for the caller to evict after unlocking. A jump past the whole ring drops
// the frames of the ids above it too, uncounted. Called with sh.mu held.
func (sh *shard) expireLocked(id uint64) (expired []*instance) {
	ids, pos := sh.idWindow(id)
	if !ids.beyond(pos) {
		return nil
	}
	s, to := uint64(len(sh.node.shards)), pos-dedupWindow+1
	if to-ids.next > dedupWindow {
		//ksetlint:allow maporder.range each passed id's frames leave the budget; the result is order-independent
		for p := range sh.pending {
			if p>>63 == id>>63 && p/s < to {
				sh.takePendingLocked(p)
			}
		}
	}
	ids.expire(to, func(pos uint64) {
		id := pos*s + uint64(sh.idx)
		if in := sh.instances[id]; in != nil {
			expired = append(expired, in)
		}
		sh.takePendingLocked(id)
		sh.node.stats.idsExpired.Add(1)
	})
	return expired
}

// liveCtlLocked appends the shard's live ctl instances to dst in id order.
// Each sits at a position of the ctl window that is not a member, from the
// watermark up to the highest admitted — at most dedupWindow positions, since
// admitting slides the window to cover its id. Called with sh.mu held.
func (sh *shard) liveCtlLocked(dst []*instance) []*instance {
	ids, s := &sh.ids[0], uint64(len(sh.node.shards))
	for pos := ids.next; pos <= sh.ctlTop; pos++ {
		if ids.has(pos) {
			continue
		}
		if in := sh.instances[pos*s+uint64(sh.idx)]; in != nil {
			dst = append(dst, in)
		}
	}
	return dst
}

// takePendingLocked removes the frames buffered for id from the shard's
// budget and returns them. Called with sh.mu held.
func (sh *shard) takePendingLocked(id uint64) []wire.BatchMsg {
	frames := sh.pending[id] // on an empty map this returns before hashing
	if frames != nil {
		delete(sh.pending, id)
		sh.pendingN -= len(frames)
		sh.pendingDepth.Set(int64(sh.pendingN))
	}
	return frames
}

// archiveLocked moves an evicted instance from the live map into the
// archive ring's next slot (the oldest table's, once full), keeping its rows
// slice, and sets its id in its window. Called with sh.mu held.
func (sh *shard) archiveLocked(in *instance) {
	delete(sh.instances, in.id)
	if len(sh.ring) < sh.archCap {
		sh.ring = append(sh.ring, archivedTable{})
	}
	sh.ring[sh.head] = archivedTable{id: in.id, k: in.k, t: in.t, rows: in.rows}
	sh.head = (sh.head + 1) % sh.archCap
	ids, pos := sh.idWindow(in.id)
	ids.set(pos)
}

// archivedLocked finds a retired id's table in the ring, newest first; an
// id its window does not count as retired costs no walk.
func (sh *shard) archivedLocked(id uint64) (archivedTable, bool) {
	if ids, pos := sh.idWindow(id); !ids.has(pos) {
		return archivedTable{}, false
	}
	for i := 1; i <= len(sh.ring); i++ {
		if a := sh.ring[(sh.head+len(sh.ring)-i)%len(sh.ring)]; a.id == id {
			return a, true
		}
	}
	return archivedTable{}, false
}

// appendLocked queues one event for the loop. Called with sh.mu held; the
// caller signals the loop once its start or frame is placed.
func (sh *shard) appendLocked(ev shardEvent) {
	sh.inbox = append(sh.inbox, ev)
	sh.depth.Set(int64(len(sh.inbox)))
}

// awaitRoom blocks a connection reader, holding no lock, while the inbox is
// at or over shardMailboxDepth: until the loop swaps the inbox out or the
// node shuts down. The loop never waits here, so the stall cannot cycle.
func (sh *shard) awaitRoom() {
	sh.mu.Lock()
	for len(sh.inbox) >= shardMailboxDepth {
		if sh.drained == nil {
			sh.drained = make(chan struct{})
		}
		drained := sh.drained
		sh.mu.Unlock()
		select {
		case <-drained:
		case <-sh.node.done:
			return
		}
		sh.mu.Lock()
	}
	sh.mu.Unlock()
}

// signal nudges the shard loop (capacity-1 channel, never blocks).
func (sh *shard) signal() {
	select {
	case sh.wake <- struct{}{}:
	default:
	}
}

// loop is the shard goroutine: it feeds starts and deliveries to their
// instances' protocols until the node shuts down. One loop per
// shard is the entire goroutine budget of the instance engine. Each wake
// drains the inbox by swapping it against the batch just processed, so the
// two backing arrays alternate and a steady-state swap allocates nothing.
func (sh *shard) loop() {
	defer sh.node.wg.Done()
	var batch []shardEvent
	for {
		select {
		case <-sh.node.done:
			return
		case <-sh.wake:
		}
		for {
			sh.mu.Lock()
			batch, sh.inbox = sh.inbox, batch[:0]
			sh.depth.Set(0)
			if sh.drained != nil {
				close(sh.drained)
				sh.drained = nil
			}
			sh.mu.Unlock()
			if len(batch) == 0 {
				break
			}
			for i := range batch {
				sh.process(batch[i])
			}
			clear(batch) // an evicted instance is not kept alive by a stale slot
		}
	}
}

// process feeds one event to its instance's protocol. An instance evicted
// before its Start event comes up (ReleaseInstance on a round that closed
// without it) never starts, and late deliveries to an evicted instance are
// dropped: its archived table is already final.
func (sh *shard) process(ev shardEvent) {
	in := ev.inst
	switch {
	case in.archived.Load():
	case ev.from == startEvent:
		in.start()
	default:
		in.deliverProto(ev.from, ev.payload)
	}
}
