package cluster

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"kset/internal/obs"
	"kset/internal/prng"
	"kset/internal/types"
	"kset/internal/wire"
)

// link is the outbound half of one peer relationship: a persistent TCP
// connection this node dials to a peer, an outbound queue of sequenced
// frames, and the retransmit state that makes the channel reliable over the
// injected faults. The inbound half (frames the peer sends us) arrives on
// the connection the peer dials and is handled by Node.serveConn.
//
// Concurrency: the queue and the partition flag are guarded by mu and
// touched by enqueuers (shard loops), the ack path (the peer's reader
// applying the ack state its frames carry) and the writer. The ack state
// the writer sends is the node's dedup state for the peer (peerSeen), read
// with no link lock held. The connection and the fault rng belong to the
// writer goroutine alone.
type link struct {
	node *Node
	peer types.ProcessID
	addr string

	mu      sync.Mutex
	queue   frameQueue // unacked sequenced frames in seq order, in fixed blocks
	nextSeq uint64     // next sequence number to assign (first is 1)
	down    bool       // partitioned: hold all traffic
	// cursor splits the queue: queue[:cursor] has been rolled through the
	// fault injector at least once (sent, dropped or held back by an injected
	// delay), queue[cursor:] has never been looked at. flush takes new frames
	// from the cursor on and rescans the prefix only once retransmitAt — the
	// earliest dueAt of any prefix frame, 0 for none — has passed, so one
	// round costs the frames due now, not the frames unacked. An ack may leave
	// retransmitAt stale-early; the rescan it triggers recomputes it.
	cursor       int
	retransmitAt int64
	// scanned counts the queue entries flush has examined; the tests and
	// BenchmarkLinkFlushBacklog read it to pin the cost of a round.
	scanned int64
	// ackOnly counts the batch frames written with no message, and
	// rounds the flush rounds the writer has run; the tests read them once the
	// writer has exited. Writer goroutine only.
	ackOnly int64
	rounds  int64

	// unreachable is set by a failed dial and cleared by a successful one.
	// While it is set enqueue does not wake the writer, whose dial is backing
	// off: the writer's tick redials and flushes the backlog. An instance
	// missing only the rows of unreachable peers is stranded
	// (instance.strandedLocked); the flip to set retires those whose rows
	// were all in before it.
	unreachable atomic.Bool

	// accepted is raised by the reader when it accepts a message from the
	// peer and cleared by the writer before it snapshots the ack state; it
	// only lets a tick round write the ack state with no message.
	accepted atomic.Bool

	// sendScratch (due frames, mu held) and ackBuf (the ack state snapshot)
	// recycle flush's working slices, so a steady-state flush allocates
	// nothing.
	sendScratch []wire.BatchMsg
	ackBuf      wire.AckState

	// wake signals the writer that there is new work (capacity 1).
	wake chan struct{}

	// epoch anchors the link's monotonic clock (see now).
	epoch time.Time

	// Writer-goroutine state.
	conn       net.Conn
	bw         *bufio.Writer
	rng        *prng.Source
	backoff    time.Duration
	nextDialAt time.Time

	// Per-peer metrics, registered in the node's registry at link creation.
	mDials        *obs.Counter
	mDialFailures *obs.Counter
	mRetransmits  *obs.Counter
	mBackoff      *obs.Histogram
	mQueueDepth   *obs.Gauge // unacked frames, set once per flush
	mUnsent       *obs.Gauge // frames past the cursor, set once per flush
}

// pendingFrame is one sequenced message awaiting acknowledgment (msg.Seq is
// its sequence number). The message is stored as the flat wire.BatchMsg
// union and the three stamps as link-clock nanoseconds (see link.now), so
// the struct holds no pointer: queueing and flushing move plain structs, and
// the collector never scans the backlog to a peer that stays away. A
// frameQueue block holds 256 of them, about 26 KiB.
type pendingFrame struct {
	msg wire.BatchMsg
	// lastAttempt is when the frame was last rolled into a round that had a
	// connection (0: never); retransmission is due once it is older than the
	// retransmit interval.
	lastAttempt int64
	// notBefore holds the frame back until the given time (injected delay).
	notBefore int64
	// firstSent is the first time the frame was actually handed to the
	// connection (0: never transmitted); the transport ack round trip is
	// measured from it.
	firstSent int64
}

// dueAt is the link-clock time of the frame's next attempt: the end of its
// injected delay while it has never been attempted, one retransmit interval
// after its last attempt afterwards.
func (p *pendingFrame) dueAt(retransmit time.Duration) int64 {
	if p.lastAttempt == 0 {
		return p.notBefore
	}
	return p.lastAttempt + int64(retransmit)
}

func newLink(n *Node, peer types.ProcessID, addr string) *link {
	label := fmt.Sprintf(`{peer="%d"}`, peer)
	return &link{
		node:          n,
		peer:          peer,
		addr:          addr,
		wake:          make(chan struct{}, 1),
		epoch:         time.Now(),
		mDials:        n.reg.Counter("kset_link_dials_total" + label),
		mDialFailures: n.reg.Counter("kset_link_dial_failures_total" + label),
		mRetransmits:  n.reg.Counter("kset_link_retransmits_total" + label),
		mBackoff:      n.reg.Histogram("kset_link_backoff_seconds"+label, obs.DefaultLatencyBounds()),
		mQueueDepth:   n.reg.Gauge("kset_link_queue_depth" + label),
		mUnsent:       n.reg.Gauge("kset_link_unsent" + label),
	}
}

// now reads the link's clock: monotonic nanoseconds since the link was
// created, offset by one so that 0 can mean "never" in a pendingFrame.
func (l *link) now() int64 {
	return int64(time.Since(l.epoch)) + 1
}

// enqueue assigns the next sequence number to bm (a proto or decide message)
// and queues it for reliable delivery. It wakes the writer unless the peer is
// unreachable: then the frame waits for the writer's tick.
func (l *link) enqueue(bm wire.BatchMsg) {
	if l.node.closed.Load() {
		return
	}
	l.mu.Lock()
	l.nextSeq++
	bm.Seq = l.nextSeq
	l.queue.push(pendingFrame{msg: bm})
	l.mu.Unlock()
	if !l.unreachable.Load() {
		l.signal()
	}
}

// ack applies one ack state the peer wrote: every queued frame it
// acknowledges leaves the queue, observing its round trip from its first
// transmission. A state naming another session — the peer's window for an
// earlier incarnation of this node — acknowledges nothing. The frames a
// state covers are a prefix of the queue, which one walk filters; the
// cursor moves back by the dropped frames it had passed.
func (l *link) ack(a wire.AckState) {
	if a.Session() != l.node.session {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	covered := 0
	for covered < l.queue.len() && l.queue.at(covered).msg.Seq < a.End() {
		covered++
	}
	now, sent := l.now(), 0
	acked := l.queue.dropIf(covered, func(i int, p *pendingFrame) bool {
		if !a.Has(p.msg.Seq) {
			return false
		}
		if first := p.firstSent; first != 0 {
			l.node.stats.ackRTT.Observe(time.Duration(now - first).Seconds())
		}
		if i < l.cursor {
			sent++
		}
		return true
	})
	l.cursor -= sent
	l.node.stats.acksPiggybacked.Add(int64(acked))
}

// setDown partitions or heals the link. While down, nothing is sent; queued
// frames accumulate and flow (via retransmission) once healed.
func (l *link) setDown(down bool) {
	l.mu.Lock()
	l.down = down
	l.mu.Unlock()
	if !down {
		l.signal()
	}
}

func (l *link) signal() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// writer is the link's goroutine: it dials (and re-dials with exponential
// backoff), applies the fault injector, retransmits unacked frames, and
// writes the ack state. It exits when the node shuts down, tearing the
// connection down.
//
// Before each round it yields once: a producer that is already runnable (a
// shard loop mid-drain, a reader holding a frame) gets to add its messages
// to this round instead of the next; with nothing else runnable the yield
// returns at once.
func (l *link) writer() {
	defer l.node.wg.Done()
	defer l.dropConn()
	cfg := &l.node.cfg
	l.rng = prng.New(cfg.Seed + 0x9e37*uint64(l.peer) + 1)
	// Retransmit is validated positive, but integer halving can still reach
	// zero (Retransmit == 1ns), and time.NewTicker panics on non-positive
	// intervals; clamp so the smallest legal config cannot crash the writer.
	interval := cfg.Retransmit / 2
	if interval <= 0 {
		interval = cfg.Retransmit
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		ticked := false
		select {
		case <-l.node.done:
			return
		case <-l.wake:
		case <-tick.C:
			ticked = true
		}
		if l.node.closed.Load() {
			return
		}
		runtime.Gosched()
		l.rounds++
		l.flush(ticked)
	}
}

// encBufs pools batch-encode buffers across all links: flush borrows one,
// encodes the whole round's frames into it, and returns it, so steady-state
// batch encoding allocates nothing.
var encBufs = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

// batchMsgsPerFrame caps how many messages one batch frame coalesces. Well
// below wire.MaxBatchMsgs: it keeps a frame around 36 KiB so a slow reader
// sees bounded frame latency, while still amortizing the write syscall over
// a thousand messages.
const batchMsgsPerFrame = 1024

// dialTimeout bounds one dial of a peer; writeTimeout bounds one write to a
// peer or a ctl connection.
const (
	dialTimeout  = time.Second
	writeTimeout = 2 * time.Second
)

// flush performs one round of work, and its cost follows the work that is
// due, not the unacked backlog. The connection comes first: while the peer is
// unreachable and the dial is backing off, the round ends before the queue
// is touched, so a crashed peer costs its live neighbours O(1) per round
// however long its queue grows, and those rounds come on the writer's tick
// alone (see unreachable). With a connection in hand the round collects the
// frames due now under the lock (each attempt rolled through the fault
// injector), then writes them outside it as coalesced batch frames, each
// carrying the ack state. The ack state rides on data, except in a tick
// round (tick: the writer's ticker started it) after the reader accepted a
// frame, the one round that writes it alone.
func (l *link) flush(tick bool) {
	l.mu.Lock()
	queued := l.queue.len()
	l.mQueueDepth.Set(int64(queued))
	l.mUnsent.Set(int64(queued - l.cursor))
	ackOnly := tick && l.accepted.Load()
	if l.down || (queued == 0 && !ackOnly) {
		l.mu.Unlock()
		return
	}
	if l.conn == nil {
		// Dialing blocks: not under the lock.
		l.mu.Unlock()
		if !l.ensureConn() {
			return
		}
		l.mu.Lock()
	}
	sends := l.collectDue(l.now())
	// Everything enqueued so far is in this round, so a wake already pending
	// announces work the round has taken: consume it rather than run an
	// empty round. An enqueue after the unlock signals afresh.
	select {
	case <-l.wake:
	default:
	}
	l.mu.Unlock()

	if len(sends) > 0 || ackOnly {
		l.flushBatch(sends)
	}
	// Buffered is zero on a round that found nothing due; a fresh dial's
	// Hello counts, so it never waits for the first frame.
	if l.bw != nil && l.bw.Buffered() > 0 {
		if err := l.conn.SetWriteDeadline(time.Now().Add(writeTimeout)); err != nil {
			l.connFailed()
			return
		}
		if err := l.bw.Flush(); err != nil {
			l.connFailed()
		}
	}
}

// collectDue gathers this round's transmissions into sendScratch in queue
// order: prefix frames whose deadline has passed — looked at only once
// retransmitAt says one has — then every frame past the cursor. Called with
// l.mu held and a connection up, which is what makes each one an attempt.
func (l *link) collectDue(now int64) []wire.BatchMsg {
	retransmit := l.node.cfg.Retransmit
	sends := l.sendScratch[:0]
	first := l.cursor
	if l.retransmitAt != 0 && now >= l.retransmitAt {
		first, l.retransmitAt = 0, 0
	}
	queued := l.queue.len()
	for i := first; i < queued; i++ {
		p := l.queue.at(i)
		if i >= l.cursor || p.dueAt(retransmit) <= now {
			sends = l.attempt(p, now, sends)
		}
		if due := p.dueAt(retransmit); l.retransmitAt == 0 || due < l.retransmitAt {
			l.retransmitAt = due
		}
	}
	l.scanned += int64(queued - first)
	l.cursor = queued
	l.sendScratch = sends
	return sends
}

// attempt rolls one due frame through the fault injector and appends what
// survives to sends; every attempt after a frame's first counts as a
// retransmission. Called with l.mu held.
func (l *link) attempt(p *pendingFrame, now int64, sends []wire.BatchMsg) []wire.BatchMsg {
	isNew := p.lastAttempt == 0
	if !isNew {
		l.node.stats.retransmits.Add(1)
		l.mRetransmits.Add(1)
	}
	act := l.node.cfg.Faults.roll(l.rng)
	// Only dilate frames that have never been sent; a retransmission is
	// already late.
	if act == actDelay && isNew {
		l.node.stats.delaysInjected.Add(1)
		p.notBefore = now + int64(l.node.cfg.Faults.delay(l.rng))
		return sends
	}
	p.lastAttempt = now
	switch act {
	case actDrop:
		l.node.stats.dropsInjected.Add(1)
		return sends
	case actDup:
		l.node.stats.dupsInjected.Add(1)
		sends = append(sends, p.msg)
	}
	if p.firstSent == 0 {
		p.firstSent = now
	}
	return append(sends, p.msg)
}

// flushBatch writes one round as coalesced batch frames: messages are
// chunked so each frame stays small, and every frame carries the ack state,
// snapshotted once for the round after the accepted flag is cleared (an
// acceptance the snapshot misses raises it again). The first failed write
// tears the connection down and ends the round: the frames stay queued for
// retransmission, and no ack is owed. The encode buffer is pooled, so the
// whole path is allocation-free in steady state.
func (l *link) flushBatch(sends []wire.BatchMsg) {
	bufp := encBufs.Get().(*[]byte)
	defer encBufs.Put(bufp)
	l.accepted.Store(false)
	l.ackBuf = l.node.ackState(l.peer, l.ackBuf)
	for {
		chunk := sends[:min(len(sends), batchMsgsPerFrame)]
		frame, err := wire.AppendBatchFrame((*bufp)[:0], l.ackBuf, chunk)
		if err != nil {
			// Encoding is pure: this cannot happen for messages the enqueue
			// path accepts. The frames retransmit.
			l.node.log.Warn("encode batch failed", "peer", int(l.peer), "err", err.Error())
			return
		}
		*bufp = frame[:0]
		if !l.writeFrame(frame) {
			return
		}
		if len(chunk) == 0 {
			l.ackOnly++
		}
		l.node.stats.framesSent.Add(1)
		l.node.stats.msgsSent.Add(int64(len(chunk)))
		if sends = sends[len(chunk):]; len(sends) == 0 {
			return
		}
	}
}

// ensureConn dials the peer if no connection is up, honoring the backoff
// window, and sends the identifying Hello on success.
func (l *link) ensureConn() bool {
	if l.conn != nil {
		return true
	}
	now := time.Now()
	if now.Before(l.nextDialAt) {
		return false
	}
	l.mDials.Add(1)
	conn, err := net.DialTimeout("tcp", l.addr, dialTimeout)
	if err != nil {
		if !l.unreachable.Swap(true) {
			l.node.retireStrandedAll()
		}
		l.mDialFailures.Add(1)
		if l.backoff == 0 {
			l.backoff = 25 * time.Millisecond
		} else {
			l.backoff *= 2
			if l.backoff > time.Second {
				l.backoff = time.Second
			}
		}
		l.mBackoff.Observe(l.backoff.Seconds())
		l.nextDialAt = now.Add(l.backoff)
		l.node.log.Debug("dial failed",
			"peer", int(l.peer), "addr", l.addr,
			"backoff", l.backoff.String(), "err", err.Error())
		return false
	}
	l.unreachable.Store(false)
	l.backoff = 0
	l.nextDialAt = time.Time{}
	l.conn = conn
	l.bw = bufio.NewWriter(conn)
	l.node.stats.connects.Add(1)
	l.node.log.Debug("dialed peer", "peer", int(l.peer), "addr", l.addr)
	var hello bytes.Buffer
	err = wire.WriteMsg(&hello, wire.Hello{
		From:       l.node.cfg.ID,
		Role:       wire.RolePeer,
		N:          l.node.cfg.N,
		Session:    l.node.session,
		MaxVersion: wire.VersionBatch,
	})
	if err != nil {
		// Encoding is pure and NewNode validated every field.
		l.node.log.Warn("encode hello failed", "peer", int(l.peer), "err", err.Error())
		l.dropConn()
		return false
	}
	return l.writeFrame(hello.Bytes())
}

// writeFrame hands one encoded frame (length prefix included) to the buffered
// writer under the write deadline. On failure the connection is torn down
// (the writer re-dials on a later round) and queued frames survive for
// retransmission.
func (l *link) writeFrame(frame []byte) bool {
	if l.conn == nil {
		return false
	}
	if err := l.conn.SetWriteDeadline(time.Now().Add(writeTimeout)); err != nil {
		l.connFailed()
		return false
	}
	if _, err := l.bw.Write(frame); err != nil {
		l.connFailed()
		return false
	}
	return true
}

func (l *link) connFailed() {
	l.dropConn()
	l.node.stats.connFailures.Add(1)
}

func (l *link) dropConn() {
	if l.conn != nil {
		_ = l.conn.Close() // the connection is already failed or superseded
		l.conn = nil
		l.bw = nil
	}
}
