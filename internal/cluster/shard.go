package cluster

// The sharded instance engine: instead of one goroutine (plus a 256-slot
// inbox) per consensus instance, the node runs a fixed pool of shard event
// loops, each owning the instances whose id hashes to it (id % shards) and
// draining one bounded inbox. Connection readers append accepted protocol
// messages to the owning shard's inbox, and the shard loop makes every
// protocol call — Start, backlog replay, self-send draining, Deliver — so
// mpnet's single-threaded-protocol contract holds per instance exactly as it
// did with a dedicated goroutine. The steady-state cost of an idle instance
// drops from a goroutine stack plus a 4 KiB channel to a map entry, and the
// node's goroutine count is O(shards + peers) instead of O(instances).
//
// Hand-offs are per frame, not per message: a reader appends a whole frame's
// messages inside the shard critical section placeFrame already holds, wakes
// the loop once when the frame is done, and the loop swaps the entire inbox
// out and processes it without touching the lock again.
//
// Each shard is also its ids' whole registry — live, archived, tombstoned —
// so admitting, placing and evicting take no node-wide lock.
//
// Lock order (outermost first): peerSeen.mu, then shard.mu. Instance locks
// (instance.mu) are only ever taken with neither held. Nobody blocks while
// holding shard.mu: a reader that finds the inbox full waits outside every
// lock, which stalls only that connection (backpressure the retransmit
// layer rides out), never a lock holder.

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"kset/internal/obs"
	"kset/internal/types"
	"kset/internal/wire"
)

// shardMailboxDepth bounds the deliveries queued between the connection
// readers and one shard loop. The old engine spent 256 slots per instance;
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

// maxRetired bounds each shard's tombstones — every id it ever evicted —
// counted in runs of consecutive ids (consecutive on the shard: id/S). Ids
// evicted in increasing order extend one run; past maxRetired runs the set
// folds into a floor at the highest id whose table has rotated out of the
// archive ring — every id at or below it becomes retired wholesale — trading
// exactness for bounded memory. Ids evicted within the ring's latest archCap
// evictions stay exact runs above the floor, so an instance that completed
// early does not retire lower ids still about to start (an ACS round's
// later votes). The fold can retire a low id that was never started; a
// Start for it still re-acks idempotently, which is the safe direction (the
// alternative, resurrecting completed instances, re-runs protocols and
// re-broadcasts decides).
const maxRetired = 1 << 16

// shardEvent is one remote protocol message awaiting its shard loop.
type shardEvent struct {
	inst    *instance
	from    types.ProcessID
	payload types.Payload
}

// startReq is one registered instance awaiting its protocol Start on the
// shard loop, carrying the frames buffered before the Start arrived.
type startReq struct {
	inst    *instance
	backlog []wire.BatchMsg
}

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
	// low and prevLow are the lowest ids written to the ring in this lap of
	// head and in the last one; every table in the ring is above one of them.
	low, prevLow uint64
	rotated      uint64       // the highest id/S whose table the ring overwrote: the fold floor
	retired      idRuns       // tombstones of every evicted id, as id/S
	maxID        uint64       // the highest id ever admitted; above it nothing completed
	starts       []startReq   // registered instances awaiting Start
	inbox        []shardEvent // protocol deliveries awaiting the loop
	// drained, while non-nil, is closed by the loop's next inbox swap: a
	// reader that found the inbox at the bound waits on it.
	drained chan struct{}

	// wake (capacity 1) tells the loop there is work: starts or an inbox
	// that a reader finished appending a frame to. Consumed only by the loop.
	wake chan struct{}

	spare []startReq // the loop's other start-queue array (runStarts)

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
		low:       math.MaxUint64,
		prevLow:   math.MaxUint64,
		wake:      make(chan struct{}, 1),
		depth:     n.reg.Gauge(fmt.Sprintf(`kset_shard_mailbox_depth{shard="%d"}`, idx)),

		pendingDepth: n.reg.Gauge(fmt.Sprintf(`kset_shard_pending_frames{shard="%d"}`, idx)),
	}
}

// shardFor maps an instance id to its owning shard.
func (n *Node) shardFor(id uint64) *shard {
	return n.shards[id%uint64(len(n.shards))]
}

// completedLocked reports whether id already finished (was evicted and so
// tombstoned) on this shard. Called with sh.mu held.
func (sh *shard) completedLocked(id uint64) bool {
	return id <= sh.maxID && sh.retired.has(id/uint64(len(sh.node.shards)))
}

// archiveLocked moves an evicted instance from the live map into the
// archive ring's next slot (the oldest table's, once full), keeping its rows
// slice, and tombstones its id. It reports a fold of the tombstones with the
// highest id the fold retired. Called with sh.mu held.
func (sh *shard) archiveLocked(in *instance) (folded bool, floorID uint64) {
	delete(sh.instances, in.id)
	s := uint64(len(sh.node.shards))
	if len(sh.ring) < sh.archCap {
		sh.ring = append(sh.ring, archivedTable{})
	} else {
		sh.rotated = max(sh.rotated, sh.ring[sh.head].id/s)
	}
	sh.ring[sh.head] = archivedTable{id: in.id, k: in.k, t: in.t, rows: in.rows}
	sh.low = min(sh.low, in.id)
	if sh.head = (sh.head + 1) % sh.archCap; sh.head == 0 {
		sh.prevLow, sh.low = sh.low, math.MaxUint64
	}
	if !sh.retired.add(in.id / s) {
		return false, 0
	}
	// Past maxRetired runs the ring has rotated, and every run above the
	// floor holds only ids still in the ring: at most archCap runs remain.
	sh.retired.fold(sh.rotated)
	return true, sh.retired.floor*s + uint64(sh.idx)
}

// archivedLocked finds a completed id's table in the ring, newest first. An
// id below every table the ring can still hold skips the walk, so old ids
// cost no scan under the shard lock when ids complete roughly in order.
func (sh *shard) archivedLocked(id uint64) (archivedTable, bool) {
	if id < min(sh.low, sh.prevLow) || !sh.completedLocked(id) {
		return archivedTable{}, false
	}
	for i := 1; i <= len(sh.ring); i++ {
		if a := sh.ring[(sh.head+len(sh.ring)-i)%len(sh.ring)]; a.id == id {
			return a, true
		}
	}
	return archivedTable{}, false
}

// appendLocked queues one protocol delivery for the loop. Called with sh.mu
// held; the caller signals the loop once its frame is placed.
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

// loop is the shard goroutine: it starts registered instances and feeds
// deliveries to their protocols until the node shuts down. One loop per
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
			sh.runStarts()
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

// runStarts drains the start queue, swapping the whole queue out per pass
// as the loop swaps the inbox: each instance not yet archived gets its
// protocol Start and backlog replay. An instance evicted before its start
// request is processed (ReleaseInstance on a round that closed without it)
// is skipped; its archived table is already final.
func (sh *shard) runStarts() {
	for {
		sh.mu.Lock()
		reqs := sh.starts
		sh.starts = sh.spare[:0]
		sh.mu.Unlock()
		for _, req := range reqs {
			if !req.inst.archived.Load() {
				req.inst.start(req.backlog)
			}
		}
		clear(reqs)
		sh.spare = reqs[:0]
		if len(reqs) == 0 {
			return
		}
	}
}

// process feeds one delivery to its instance's protocol. A delivery can only
// have been queued after its instance was registered, and registration
// queues the start request before the instance becomes visible to
// placeFrame — so if the instance has not started yet, draining the start
// queue is guaranteed to run its Start first, preserving the protocol's
// Start-before-Deliver contract across the two queues.
func (sh *shard) process(ev shardEvent) {
	in := ev.inst
	if !in.started {
		sh.runStarts()
	}
	if in.archived.Load() || !in.started {
		return // evicted: late deliveries are dropped, as the old inbox drain did
	}
	in.deliverProto(ev.from, ev.payload)
}

// idRuns is a set of ids kept as sorted, disjoint, non-adjacent runs of
// consecutive ids, plus a fold floor: once folded, every id at or below the
// floor is a member and every run lies above it. An id one above the last
// run extends it in O(1), so ids added in increasing order keep one run.
type idRuns struct {
	runs   []idRun
	floor  uint64 // with folded set, every id <= floor is a member
	folded bool
}

type idRun struct{ lo, hi uint64 }

func (s *idRuns) has(id uint64) bool {
	if s.folded && id <= s.floor {
		return true
	}
	i := sort.Search(len(s.runs), func(i int) bool { return s.runs[i].hi >= id })
	return i < len(s.runs) && s.runs[i].lo <= id
}

// add inserts id and reports whether the runs now number more than
// maxRetired, for the caller to fold.
func (s *idRuns) add(id uint64) (full bool) {
	if last := len(s.runs) - 1; last >= 0 && id > s.runs[last].hi && id-1 == s.runs[last].hi {
		s.runs[last].hi = id
		return false
	}
	if s.has(id) {
		return false
	}
	// i is the first run above id; the runs at i-1 and i may touch it.
	i := sort.Search(len(s.runs), func(i int) bool { return s.runs[i].lo > id })
	left := i > 0 && s.runs[i-1].hi+1 == id
	right := i < len(s.runs) && s.runs[i].lo-1 == id
	switch {
	case left && right:
		s.runs[i-1].hi = s.runs[i].hi
		s.runs = slices.Delete(s.runs, i, i+1)
	case left:
		s.runs[i-1].hi = id
	case right:
		s.runs[i].lo = id
	default:
		s.runs = slices.Insert(s.runs, i, idRun{id, id})
	}
	return len(s.runs) > maxRetired
}

// fold makes every id at or below floor a member and drops the runs it
// covers; a run that reaches down to floor+1 joins the floor.
func (s *idRuns) fold(floor uint64) {
	if s.folded {
		floor = max(floor, s.floor)
	}
	i := sort.Search(len(s.runs), func(i int) bool { return s.runs[i].hi > floor })
	if i < len(s.runs) && s.runs[i].lo <= floor+1 {
		floor = s.runs[i].hi
		i++
	}
	s.runs = slices.Delete(s.runs, 0, i)
	s.floor, s.folded = floor, true
}
