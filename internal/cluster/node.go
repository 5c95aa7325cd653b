// Package cluster is the real-network runtime of the reproduction: a node
// daemon that serves any number of concurrent k-set consensus instances over
// persistent TCP connections to its peers, running the same
// internal/protocols implementations — unchanged — that the deterministic
// simulator (internal/mpnet) executes. Loopback runs n such nodes in one
// process over 127.0.0.1; RunInstance drives one instance across them, the
// path `ksetrun -live` and ExampleStartLoopback take.
//
// The paper's asynchronous message-passing model promises a reliable
// complete network with arbitrary finite delays. TCP gives reliability only
// per connection; the cluster transport extends it across connection loss,
// reconnection, and an adversarial fault injector (drop/delay/duplicate/
// partition, seeded) by sequencing every peer frame and retransmitting until
// acknowledged, with duplicate suppression on the receiving side. Liveness
// therefore holds exactly under the paper's assumption — every message is
// eventually delivered — while the schedule stays genuinely hostile.
//
// Decisions are validated by internal/checker from assembled decision
// tables, exactly like simulator runs: a node cannot self-certify.
//
//ksetlint:package-allow determinism the TCP runtime runs on real sockets, clocks, goroutines and locks; its tables are judged by the checker
package cluster

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"kset/internal/obs"
	"kset/internal/sweep"
	"kset/internal/theory"
	"kset/internal/types"
	"kset/internal/wire"
)

// Errors reported by the node runtime.
var (
	ErrBadConfig = errors.New("cluster: invalid configuration")
	ErrClosed    = errors.New("cluster: node closed")
	// ErrRetired refuses a Start for an id already completed or expired.
	ErrRetired = errors.New("cluster: instance id retired (completed or expired)")
)

// Config describes one cluster node.
type Config struct {
	// ID is this node's process id, 0..N-1.
	ID types.ProcessID
	// N is the cluster size; K and T are the default agreement and fault
	// bounds for instances whose Start does not override them.
	N, K, T int
	// Peers[i] is the address of node i. Peers[ID] is this node's
	// advertised address (never dialed).
	Peers []string
	// Listen is the address to bind; empty means Peers[ID].
	Listen string
	// Seed drives the per-link fault injection streams and per-instance
	// protocol randomness.
	Seed uint64
	// Faults configures the transport fault injector.
	Faults Faults
	// Retransmit is the link's retransmit period; zero selects 50ms.
	// Negative values are rejected by NewNode.
	Retransmit time.Duration
	// Shards is the number of shard event loops serving instances (instance
	// id modulo Shards selects the owning loop). Zero selects GOMAXPROCS;
	// negative values are rejected.
	Shards int
	// Log, if non-nil, receives structured events at their natural levels
	// (obs.NewLogger builds one): dials and instance lifecycle at debug,
	// refused connections, bad frames and failed ctl requests at warn.
	Log *slog.Logger
}

// maxPendingFrames bounds the frames one shard buffers, across all its ids,
// for instances that have not been started locally yet (their Start is still
// in flight). Beyond the bound frames are dropped unacknowledged, so the peer
// keeps retransmitting; the bound only exists so a hostile peer cannot grow
// memory without limit, by one id or by many. An id's Start frees its
// frames, and so does its expiry (shard.go) if it never starts.
const maxPendingFrames = 1 << 16

// Node is one cluster member: a TCP listener, one outbound link per peer,
// and a set of running consensus instances.
type Node struct {
	cfg     Config
	session uint64
	ln      net.Listener
	links   []*link // indexed by peer id; links[cfg.ID] is nil

	// shards are the instance event loops; instance id modulo len(shards)
	// selects the owner. Each shard is its ids' whole registry — live
	// instances, pre-start frame buffers, archive and the windows of retired
	// ids — guarded by the shard's own mutex.
	shards []*shard

	// connMu guards the accepted-connection list, kept for shutdown.
	connMu sync.Mutex
	conns  []net.Conn

	seen   []peerSeen  // per-peer duplicate suppression, each with its own lock
	closed atomic.Bool // set by Close before done is closed

	// Upcalls into a layered service (the ACS engine). All three are set
	// before Serve and never mutated afterwards, so reads are race-free.
	// They are invoked with no node or instance lock held; a handler may call
	// back into the node (StartInstance, BroadcastPropose, ReleaseInstance).
	proposeH  func(wire.Propose)
	decideObs func(id uint64, node types.ProcessID, value types.Value)
	ctlH      func(wire.Msg) (wire.Msg, bool)

	reg   *obs.Registry
	log   *slog.Logger
	stats nodeStats
	done  chan struct{}
	wg    sync.WaitGroup

	// sweepPool bounds the workers that execute grid-sweep cells for the
	// sweep-job control service; concurrent jobs share the one bound.
	sweepPool *sweep.Pool
}

// peerSeen suppresses re-deliveries of retransmitted or duplicated frames
// from one peer, and every batch frame to the peer carries it back as the
// ack (ackState): win holds the sequence numbers accepted in the peer's
// session, from 1 on, and top the highest. Each peer's state carries its own
// lock — held across the whole check-and-place in placeFrame so overlapping
// connections from one peer cannot double-deliver — and that lock is the
// outermost in the node's order (peerSeen.mu, then shard.mu).
type peerSeen struct {
	mu      sync.Mutex
	session uint64
	win     window
	top     uint64
}

// nodeStats are the transport-level metrics exposed through the Prometheus
// endpoint and the PullMetrics reply. They live in the node's obs registry;
// these fields are just the hot-path handles.
type nodeStats struct {
	framesSent      *obs.Counter
	framesRecv      *obs.Counter
	msgsSent        *obs.Counter
	msgsRecv        *obs.Counter
	acksPiggybacked *obs.Counter
	retransmits     *obs.Counter
	dropsInjected   *obs.Counter
	delaysInjected  *obs.Counter
	dupsInjected    *obs.Counter
	connects        *obs.Counter
	connFailures    *obs.Counter
	decidesRecv     *obs.Counter
	idsExpired      *obs.Counter
	startsRetired   *obs.Counter
	stranded        *obs.Counter
	instancesActive *obs.Gauge

	// decideLatency observes each local decision's start-to-decide time;
	// tableLatency observes start-to-complete-table time (the point at which
	// the checker could certify the instance); ackRTT observes the
	// first-transmission-to-transport-ack round trip per sequenced frame.
	// All in seconds.
	decideLatency *obs.Histogram
	tableLatency  *obs.Histogram
	ackRTT        *obs.Histogram

	// Grid-sweep service metrics: jobs served, and the wall-clock latency of
	// each cell executed (seconds), whose count is the cells executed.
	sweepJobs        *obs.Counter
	sweepCellLatency *obs.Histogram
}

// initStats registers the node-level metrics in the registry.
func (n *Node) initStats() {
	lat := obs.DefaultLatencyBounds()
	n.stats = nodeStats{
		framesSent:      n.reg.Counter("kset_frames_sent_total"),
		framesRecv:      n.reg.Counter("kset_frames_recv_total"),
		msgsSent:        n.reg.Counter("kset_msgs_sent_total"),
		msgsRecv:        n.reg.Counter("kset_msgs_recv_total"),
		acksPiggybacked: n.reg.Counter("kset_acks_piggybacked_total"),
		retransmits:     n.reg.Counter("kset_retransmits_total"),
		dropsInjected:   n.reg.Counter(`kset_faults_injected_total{kind="drop"}`),
		delaysInjected:  n.reg.Counter(`kset_faults_injected_total{kind="delay"}`),
		dupsInjected:    n.reg.Counter(`kset_faults_injected_total{kind="dup"}`),
		connects:        n.reg.Counter("kset_connects_total"),
		connFailures:    n.reg.Counter("kset_conn_failures_total"),
		decidesRecv:     n.reg.Counter("kset_decides_recv_total"),
		idsExpired:      n.reg.Counter("kset_ids_expired_total"),
		startsRetired:   n.reg.Counter("kset_starts_retired_total"),
		stranded:        n.reg.Counter("kset_instances_stranded_total"),
		instancesActive: n.reg.Gauge("kset_instances_active"),
		decideLatency:   n.reg.Histogram("kset_decide_latency_seconds", lat),
		tableLatency:    n.reg.Histogram("kset_table_latency_seconds", lat),
		ackRTT:          n.reg.Histogram("kset_ack_rtt_seconds", lat),

		sweepJobs:        n.reg.Counter("kset_sweep_jobs_total"),
		sweepCellLatency: n.reg.Histogram("kset_sweep_cell_seconds", lat),
	}
}

// NewNode validates the configuration and constructs a node. Call Serve (or
// Start) to begin operation.
func NewNode(cfg Config) (*Node, error) {
	if cfg.N <= 0 || cfg.N > wire.MaxProcs {
		return nil, fmt.Errorf("%w: n=%d", ErrBadConfig, cfg.N)
	}
	if int(cfg.ID) < 0 || int(cfg.ID) >= cfg.N {
		return nil, fmt.Errorf("%w: id %d for n=%d", ErrBadConfig, cfg.ID, cfg.N)
	}
	if len(cfg.Peers) != cfg.N {
		return nil, fmt.Errorf("%w: %d peer addresses for n=%d", ErrBadConfig, len(cfg.Peers), cfg.N)
	}
	if cfg.K <= 0 || cfg.T < 0 || cfg.T >= cfg.N {
		return nil, fmt.Errorf("%w: k=%d t=%d", ErrBadConfig, cfg.K, cfg.T)
	}
	// Zero selects the default, but a negative Retransmit is a
	// configuration bug, not a choice — it would panic the link writer's
	// ticker. Reject loudly instead.
	if cfg.Retransmit < 0 {
		return nil, fmt.Errorf("%w: Retransmit %v must be positive (or zero for the 50ms default)", ErrBadConfig, cfg.Retransmit)
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("%w: Shards %d must be positive (or zero for the GOMAXPROCS default)", ErrBadConfig, cfg.Shards)
	}
	if cfg.Shards == 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.Retransmit == 0 {
		cfg.Retransmit = 50 * time.Millisecond
	}
	if cfg.Log == nil {
		cfg.Log = obs.Discard()
	}
	n := &Node{
		cfg:       cfg,
		session:   uint64(time.Now().UnixNano()),
		seen:      make([]peerSeen, cfg.N),
		links:     make([]*link, cfg.N),
		reg:       obs.NewRegistry(),
		log:       cfg.Log.With("node", cfg.ID),
		done:      make(chan struct{}),
		sweepPool: sweep.NewPool(0),
	}
	n.initStats()
	for i := range n.seen {
		n.seen[i].win.next = 1
	}
	for i := 0; i < cfg.N; i++ {
		if types.ProcessID(i) == cfg.ID {
			continue
		}
		n.links[i] = newLink(n, types.ProcessID(i), cfg.Peers[i])
	}
	// Shard loops start with the node, not with Serve: tests (and the sweep
	// executor) start instances on nodes that never serve a listener. Close
	// stops them.
	n.shards = make([]*shard, cfg.Shards)
	for i := range n.shards {
		n.shards[i] = newShard(n, i, cfg.Shards)
	}
	for _, sh := range n.shards {
		n.wg.Add(1)
		go sh.loop()
	}
	return n, nil
}

// Start listens on the configured address and serves until Close.
func (n *Node) Start() error {
	addr := n.cfg.Listen
	if addr == "" {
		addr = n.cfg.Peers[n.cfg.ID]
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	n.Serve(ln)
	return nil
}

// Serve begins operation on an already-bound listener (the loopback
// orchestrator binds :0 listeners first to learn the port numbers). It
// returns immediately; the node runs until Close.
func (n *Node) Serve(ln net.Listener) {
	n.ln = ln
	for _, l := range n.links {
		if l == nil {
			continue
		}
		n.wg.Add(1)
		go l.writer()
	}
	n.wg.Add(1)
	go n.acceptLoop()
}

// Addr returns the bound listener address (useful with :0 listeners).
func (n *Node) Addr() string {
	if n.ln == nil {
		return ""
	}
	return n.ln.Addr().String()
}

// Close shuts the node down: stops the listener, severs every connection,
// and waits for all goroutines to exit. Safe to call more than once.
func (n *Node) Close() {
	if n.closed.Swap(true) {
		n.wg.Wait()
		return
	}
	n.connMu.Lock()
	conns := n.conns
	n.conns = nil
	n.connMu.Unlock()

	close(n.done)
	if n.ln != nil {
		_ = n.ln.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	n.wg.Wait()
}

// acceptLoop accepts inbound connections until the listener closes.
func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return
		}
		if !n.trackConn(conn) {
			_ = conn.Close() // the node is shutting down; drop the accept
			return
		}
		n.wg.Add(1)
		go n.serveConn(conn)
	}
}

// trackConn registers an accepted connection for shutdown; it reports false
// when the node is already closed.
func (n *Node) trackConn(conn net.Conn) bool {
	n.connMu.Lock()
	defer n.connMu.Unlock()
	if n.closed.Load() {
		return false
	}
	n.conns = append(n.conns, conn)
	return true
}

func (n *Node) untrackConn(conn net.Conn) {
	n.connMu.Lock()
	defer n.connMu.Unlock()
	for i, c := range n.conns {
		if c == conn {
			n.conns = append(n.conns[:i], n.conns[i+1:]...)
			return
		}
	}
}

// serveConn handles one inbound connection: a Hello identifying the sender,
// then batch frames from a peer or control requests (start/pulls) until the
// stream ends.
func (n *Node) serveConn(conn net.Conn) {
	defer n.wg.Done()
	defer conn.Close()
	defer n.untrackConn(conn)

	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		n.log.Warn("set hello read deadline failed", "err", err.Error())
		return
	}
	// Every read on the connection, the Hello included, goes through one
	// buffered reader: a frame costs one read syscall or less, and nothing
	// the peer sent right behind its Hello is lost to a second reader.
	br := bufio.NewReader(conn)
	first, err := wire.ReadMsg(br)
	if err != nil {
		return
	}
	hello, ok := first.(wire.Hello)
	if !ok {
		n.log.Warn("first frame not a hello", "type", first.Type())
		return
	}
	if err := conn.SetReadDeadline(time.Time{}); err != nil {
		n.log.Warn("clear read deadline failed", "err", err.Error())
		return
	}
	switch hello.Role {
	case wire.RolePeer:
		if int(hello.From) < 0 || int(hello.From) >= n.cfg.N || hello.From == n.cfg.ID {
			n.log.Warn("hello from invalid peer", "peer", int(hello.From))
			return
		}
		if hello.N != n.cfg.N {
			n.log.Warn("peer disagrees on n", "peer", int(hello.From), "n", hello.N, "ours", n.cfg.N)
			return
		}
		if hello.MaxVersion < wire.VersionBatch {
			n.log.Warn("peer wire version refused", "peer", int(hello.From),
				"offers", hello.MaxVersion, "needs", wire.VersionBatch)
			return
		}
		n.resetSeenIfNewSession(hello.From, hello.Session)
		n.servePeer(br, hello.From)
	case wire.RoleCtl:
		n.serveCtl(br, conn)
	}
}

// resetSeenIfNewSession clears duplicate-suppression state when a peer
// reappears with a new process incarnation: its sequence space restarted and
// its old process cannot emit frames anymore.
func (n *Node) resetSeenIfNewSession(peer types.ProcessID, session uint64) {
	s := &n.seen[peer]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.session != session {
		s.session = session
		s.win, s.top = window{next: 1}, 0
	}
}

// servePeer consumes batch frames, the only thing a peer sends after its
// Hello, from one peer connection, applying each frame's ack state to the
// link back to the peer. The frame buffer, the decoded batch and the frame's
// hand-off list are reused, so the receive path allocates nothing per message.
func (n *Node) servePeer(br *bufio.Reader, from types.ProcessID) {
	var buf []byte
	var batch wire.Batch
	var fw frameWork
	l := n.links[from]
	for {
		var err error
		buf, err = wire.ReadFrameAppend(br, buf[:0])
		if err != nil {
			return
		}
		n.stats.framesRecv.Add(1)
		if err := wire.DecodeBatchInto(buf, &batch); err != nil {
			n.log.Warn("bad batch frame", "peer", int(from), "err", err.Error())
			return
		}
		l.ack(batch.Ack)
		for i := range batch.Msgs {
			n.handleSequenced(from, batch.Msgs[i], &fw)
		}
		fw.finish(l)
	}
}

// frameWork collects what one inbound frame hands to other goroutines, so
// that each hand-off happens once per frame rather than once per message.
type frameWork struct {
	accepted bool     // a message was accepted: the ack state changed
	shards   []*shard // shards whose inbox received protocol messages
}

// finish hands the frame's work over: an acceptance raises the link's
// accepted flag, waking nobody (link.flush), each shard that received
// messages is woken once, and then the reader waits, holding no lock, for
// room in any of those inboxes it left at the bound (shard.awaitRoom).
func (fw *frameWork) finish(l *link) {
	if fw.accepted {
		l.accepted.Store(true)
	}
	for _, sh := range fw.shards {
		sh.signal()
	}
	for _, sh := range fw.shards {
		sh.awaitRoom()
	}
	fw.accepted, fw.shards = false, fw.shards[:0]
}

// handleSequenced runs the reliability protocol for one sequenced message:
// authenticate the sender, suppress duplicates, place the message (queue it
// for its instance's shard, or buffer until the instance starts), and record
// the acceptance for the frame's end.
func (n *Node) handleSequenced(from types.ProcessID, bm wire.BatchMsg, fw *frameWork) {
	// The transport stamps the authentic sender, as mpnet's network does: a
	// message claiming another origin is dropped.
	if bm.From != from {
		n.log.Warn("forged sender", "peer", int(from), "claimed", int(bm.From))
		return
	}
	n.stats.msgsRecv.Add(1)
	if bm.Kind == wire.TypeDecide {
		n.stats.decidesRecv.Add(1)
	}
	inst, accepted, fresh := n.placeFrame(from, bm.Seq, bm)
	if inst != nil {
		switch bm.Kind {
		case wire.TypeProto:
			if !slices.Contains(fw.shards, inst.shard) {
				fw.shards = append(fw.shards, inst.shard)
			}
		case wire.TypeDecide:
			inst.recordDecision(bm.From, bm.Value)
		}
	}
	if fresh && bm.Kind == wire.TypePropose {
		if h := n.proposeH; h != nil {
			h(wire.Propose{Round: bm.Instance, Proposer: bm.Origin, Noop: bm.Noop, Value: bm.Value})
		}
	}
	fw.accepted = fw.accepted || accepted
}

// placeFrame decides one message's fate under the sender's dedup lock:
// duplicate (re-ack, no delivery), deliverable (returns the instance; a
// protocol message is already in the owning shard's inbox, which the caller
// wakes once per frame, and a decide is the caller's to apply outside every
// lock), bufferable (stored in the owning shard until the instance starts),
// or droppable (the shard's pending budget spent, or sequence beyond the
// dedup window: not acknowledged, the peer will retry).
// fresh reports a first acceptance, as opposed to a re-acked duplicate. ACS
// proposals never route to an instance (their Instance slot carries the
// round number); the caller hands fresh ones to the propose handler. Frames
// for a retired id are accepted and dropped: only the ack matters. Holding the
// per-peer lock across the whole check-and-place keeps check+buffer+mark
// atomic, so frames from different peers place in parallel while one peer's
// retransmissions cannot double-deliver.
func (n *Node) placeFrame(from types.ProcessID, seq uint64, bm wire.BatchMsg) (inst *instance, accepted, fresh bool) {
	s := &n.seen[from]
	s.mu.Lock()
	defer s.mu.Unlock()
	if n.closed.Load() {
		return nil, false, false
	}
	if s.win.has(seq) {
		return nil, true, false // duplicate: already accepted, just re-ack
	}
	if s.win.beyond(seq) {
		return nil, false, false // beyond the window: drop unacked, the peer retries
	}
	if bm.Kind != wire.TypePropose {
		sh := n.shardFor(bm.Instance)
		sh.mu.Lock()
		inst = sh.instances[bm.Instance]
		switch ids, pos := sh.idWindow(bm.Instance); {
		case inst != nil:
			if bm.Kind == wire.TypeProto {
				sh.appendLocked(shardEvent{inst: inst, from: bm.From, payload: bm.Payload})
			}
		case ids.has(pos):
		case sh.pendingN >= maxPendingFrames:
			sh.mu.Unlock()
			return nil, false, false
		default:
			sh.pending[bm.Instance] = append(sh.pending[bm.Instance], bm)
			sh.pendingN++
			sh.pendingDepth.Set(int64(sh.pendingN))
		}
		sh.mu.Unlock()
	}
	s.win.set(seq)
	s.top = max(s.top, seq)
	return inst, true, true
}

// ackState snapshots what this node acknowledges to peer into dst: the
// peer's session, the watermark of its dedup window and, when a hole lies
// below the highest seq accepted, the window's words from the watermark up
// to that seq. It takes the peer's dedup lock alone.
func (n *Node) ackState(peer types.ProcessID, dst wire.AckState) wire.AckState {
	s := &n.seen[peer]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.win.appendWords(append(dst[:0], s.session, s.win.next), s.top)
}

// StartInstance starts (or re-acknowledges) one consensus instance with the
// given local input. Zero K/T select the node defaults, and protocol 0 runs
// FloodMin. It is the local half of the ctl Start frame and is what tests
// call directly. A Start for a retired id runs nothing, counts in
// kset_starts_retired_total and is acked like a running one (naming it in
// the reply needs a wire change).
func (n *Node) StartInstance(s wire.Start) error {
	k, t := s.K, s.T
	if k == 0 {
		k = n.cfg.K
	}
	if t == 0 {
		t = n.cfg.T
	}
	proto := theory.ProtocolID(s.Proto)
	if proto == theory.ProtoNone {
		proto = theory.ProtoFloodMin
	}
	if k <= 0 || t < 0 || t >= n.cfg.N {
		return fmt.Errorf("%w: instance %d k=%d t=%d", ErrBadConfig, s.Instance, k, t)
	}
	_, _, err := n.registerInstance(s.Instance, k, t, proto, s.Ell, s.Input)
	if errors.Is(err, ErrRetired) {
		n.stats.startsRetired.Add(1)
		return nil
	}
	return err
}

// registerInstance creates the instance record, claims any frames buffered
// before the Start arrived, and queues its Start in the owning shard's
// inbox. It never blocks — ACS upcalls call it while holding the
// engine lock — and returns a nil instance for an id that is already
// running (the idempotent re-ack path), ErrRetired for one already retired.
// The claimed backlog is returned for tests that verify the handoff; the
// shard loop replays it.
func (n *Node) registerInstance(id uint64, k, t int, proto theory.ProtocolID, ell int, input types.Value) (*instance, []wire.BatchMsg, error) {
	inst, err := newInstance(n, id, k, t, proto, ell, input)
	if err != nil {
		return nil, nil, err
	}
	return n.admit(inst)
}

// admit is the registry half of registerInstance, for an instance already
// constructed (tests hand it one whose protocol they control). An id beyond
// its shard's id window first slides the window up to it.
func (n *Node) admit(inst *instance) (*instance, []wire.BatchMsg, error) {
	id := inst.id
	sh := n.shardFor(id)
	inst.shard = sh
	sh.mu.Lock()
	if n.closed.Load() {
		sh.mu.Unlock()
		return nil, nil, ErrClosed
	}
	// A re-sent Start (ctl retry, ACS restart race) must not resurrect a
	// retired instance nor start a running one twice.
	ids, pos := sh.idWindow(id)
	if ids.has(pos) {
		sh.mu.Unlock()
		return nil, nil, ErrRetired
	}
	if sh.instances[id] != nil {
		sh.mu.Unlock()
		return nil, nil, nil
	}
	expired := sh.expireLocked(id)
	if id>>63 == 0 {
		sh.ctlTop = max(sh.ctlTop, pos)
	}
	// The Start queues in the critical section that makes the instance
	// visible to placeFrame, so every delivery for it queues behind it.
	sh.instances[id] = inst
	backlog := sh.takePendingLocked(id)
	inst.backlog = backlog
	sh.appendLocked(shardEvent{inst: inst, from: startEvent})
	sh.mu.Unlock()
	sh.signal()
	n.stats.instancesActive.Add(1)
	for _, in := range expired {
		n.evictInstance(in)
	}
	return inst, backlog, nil
}

// lookup returns a running instance.
func (n *Node) lookup(id uint64) *instance {
	sh := n.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.instances[id]
}

// notifyDecide fans one decision-table row out to the registered decide
// observer and, once the row completes the instance, evicts it: with the
// local table complete its protocol cannot be needed again (every process
// decided), and with it stranded (instance.strandedLocked) every process
// still missing is one of its t faults. Either way the live state shrinks to
// an archived table. Called with no locks held.
func (n *Node) notifyDecide(in *instance, node types.ProcessID, value types.Value, tableDone, stranded bool) {
	if n.decideObs != nil {
		n.decideObs(in.id, node, value)
	}
	switch {
	case tableDone:
		n.evictInstance(in)
	case stranded:
		n.retireStranded(in)
	}
}

// retireStranded evicts an instance the stranded rule covers, counting it in
// kset_instances_stranded_total if this call is the eviction that wins.
func (n *Node) retireStranded(in *instance) {
	if n.evictInstance(in) {
		n.stats.stranded.Add(1)
	}
}

// retireStrandedAll applies the stranded rule to every live ctl instance
// once. A link runs it when its peer turns unreachable: an instance whose
// rows were all in before that has no later row to run the rule for it. Each
// shard's instances are collected under its lock; the rule runs under each
// instance's own lock, with no shard lock held.
func (n *Node) retireStrandedAll() {
	var live []*instance
	for _, sh := range n.shards {
		sh.mu.Lock()
		live = sh.liveCtlLocked(live[:0])
		sh.mu.Unlock()
		for _, in := range live {
			in.mu.Lock()
			stranded := in.strandedLocked()
			in.mu.Unlock()
			if stranded {
				n.retireStranded(in)
			}
		}
		clear(live) // retired instances are not kept alive by the scratch
	}
}

// evictInstance retires one instance and reports whether this call did.
// Setting its archived flag freezes its decision table (no row is written
// after it) and stops its protocol; then, in one shard critical section, the
// id leaves the live map for its id window and its rows, uncopied, go into
// the archive ring. Safe to call concurrently and repeatedly; the first
// caller wins.
func (n *Node) evictInstance(in *instance) bool {
	in.mu.Lock()
	won := !in.archived.Swap(true)
	in.mu.Unlock()
	if !won {
		return false
	}
	sh := in.shard
	sh.mu.Lock()
	sh.archiveLocked(in)
	sh.mu.Unlock()
	n.stats.instancesActive.Add(-1)
	if n.log.Enabled(context.Background(), slog.LevelDebug) {
		n.log.Debug("instance evicted", "instance", in.id)
	}
	return true
}

// ReleaseInstance retires an instance whose table will never complete
// locally (a participant crashed): the ACS engine calls it once a round
// closes and the instance's outcome is certified. A complete table evicts
// itself; this is the explicit path for the rest.
func (n *Node) ReleaseInstance(id uint64) {
	if in := n.lookup(id); in != nil {
		n.evictInstance(in)
	}
}

// SetProposeHandler registers the upcall receiving each first-seen ACS
// proposal. Must be set before Serve; invoked with no locks held.
func (n *Node) SetProposeHandler(h func(wire.Propose)) { n.proposeH = h }

// SetDecideObserver registers the upcall receiving every decision-table row
// as it is recorded (local decisions included). Must be set before Serve;
// invoked with no locks held.
func (n *Node) SetDecideObserver(f func(id uint64, node types.ProcessID, value types.Value)) {
	n.decideObs = f
}

// SetCtlHandler registers a fallback for control requests the node itself
// does not understand (the ACS submit/round/log vocabulary). The handler
// returns the reply and true, or false to reject the request. Must be set
// before Serve.
func (n *Node) SetCtlHandler(h func(wire.Msg) (wire.Msg, bool)) { n.ctlH = h }

// BroadcastPropose enqueues the proposal to every peer link with this node
// as the transport sender; the engine delivers the local copy itself.
func (n *Node) BroadcastPropose(p wire.Propose) {
	n.broadcastPeers(wire.BatchMsg{
		Kind: wire.TypePropose, Instance: p.Round, From: n.cfg.ID,
		Origin: p.Proposer, Noop: p.Noop, Value: p.Value,
	})
}

// ID returns this node's process id.
func (n *Node) ID() types.ProcessID { return n.cfg.ID }

// N returns the cluster size.
func (n *Node) N() int { return n.cfg.N }

// T returns the configured fault bound.
func (n *Node) T() int { return n.cfg.T }

// ActiveInstances returns the number of live (not yet evicted) instances.
func (n *Node) ActiveInstances() int {
	total := 0
	for _, sh := range n.shards {
		sh.mu.Lock()
		total += len(sh.instances)
		sh.mu.Unlock()
	}
	return total
}

// Shards returns the number of shard event loops serving instances.
func (n *Node) Shards() int { return len(n.shards) }

// broadcastPeers enqueues one sequenced message to every peer link.
func (n *Node) broadcastPeers(bm wire.BatchMsg) {
	for _, l := range n.links {
		if l != nil {
			l.enqueue(bm)
		}
	}
}

// SetPeerDown partitions (or heals) this node's outbound link to one peer.
// Tests flap links with it; a symmetric partition needs the call on both
// sides.
func (n *Node) SetPeerDown(peer types.ProcessID, down bool) {
	if int(peer) < 0 || int(peer) >= len(n.links) {
		return
	}
	if l := n.links[peer]; l != nil {
		l.setDown(down)
	}
}

// Table returns the node's current decision table for an instance — live or
// still in its shard's archive ring — or false.
func (n *Node) Table(id uint64) (wire.Table, bool) {
	// Eviction moves an instance from the live map to the archive in one
	// shard critical section, and both are read in one here, so a concurrent
	// eviction cannot make the id look unknown.
	sh := n.shardFor(id)
	sh.mu.Lock()
	inst := sh.instances[id]
	arch, ok := sh.archivedLocked(id)
	sh.mu.Unlock()
	if inst != nil {
		inst.mu.Lock()
		defer inst.mu.Unlock()
		arch, ok = archivedTable{k: inst.k, t: inst.t, rows: inst.rows}, true
	}
	if !ok {
		return wire.Table{}, false
	}
	return wire.Table{Instance: id, K: arch.k, T: arch.t, Rows: slices.Clone(arch.rows)}, true
}

// Metrics returns the node's metric registry (ksetd serves it over HTTP).
func (n *Node) Metrics() *obs.Registry { return n.reg }

// MetricsSnapshot converts the registry into the PullMetrics reply: every
// counter and gauge in one name-sorted list, every histogram in the wire
// representation (microsecond integers), sorted by name.
func (n *Node) MetricsSnapshot() wire.Metrics {
	counters, gauges := n.reg.Values()
	snaps := n.reg.Snapshots()
	out := wire.Metrics{
		Values: make([]wire.MetricValue, 0, len(counters)+len(gauges)),
		Hists:  make([]wire.Hist, 0, len(snaps)),
	}
	for _, v := range append(counters, gauges...) {
		out.Values = append(out.Values, wire.MetricValue(v))
	}
	sort.Slice(out.Values, func(i, j int) bool { return out.Values[i].Name < out.Values[j].Name })
	for _, s := range snaps {
		out.Hists = append(out.Hists, histToWire(s))
	}
	return out
}

// histToWire maps an obs snapshot (float64 seconds) to the wire's
// microsecond-integer histogram. The overflow bucket is encoded with
// UpperMicros == math.MaxInt64.
func histToWire(s obs.HistSnapshot) wire.Hist {
	h := wire.Hist{
		Name:      s.Name,
		Count:     s.Count,
		SumMicros: micros(s.Sum),
		Buckets:   make([]wire.HistBucket, 0, len(s.Counts)),
	}
	if s.Count > 0 {
		h.MinMicros = micros(s.Min)
		h.MaxMicros = micros(s.Max)
	}
	for i, bound := range s.Bounds {
		h.Buckets = append(h.Buckets, wire.HistBucket{UpperMicros: micros(bound), Count: s.Counts[i]})
	}
	h.Buckets = append(h.Buckets, wire.HistBucket{UpperMicros: math.MaxInt64, Count: s.Counts[len(s.Bounds)]})
	return h
}

func micros(seconds float64) int64 {
	return int64(math.Round(seconds * 1e6))
}

// histFromWire is the inverse of histToWire, up to the wire's microsecond
// resolution: the last bucket becomes the overflow count again and an empty
// histogram gets obs's infinite extrema back.
func histFromWire(h wire.Hist) obs.HistSnapshot {
	s := obs.HistSnapshot{
		Name:   h.Name,
		Count:  h.Count,
		Sum:    float64(h.SumMicros) / 1e6,
		Min:    math.Inf(1),
		Max:    math.Inf(-1),
		Counts: make([]uint64, len(h.Buckets)),
	}
	if h.Count > 0 {
		s.Min, s.Max = float64(h.MinMicros)/1e6, float64(h.MaxMicros)/1e6
	}
	for i, b := range h.Buckets {
		s.Counts[i] = b.Count
		if i < len(h.Buckets)-1 {
			s.Bounds = append(s.Bounds, float64(b.UpperMicros)/1e6)
		}
	}
	return s
}

// serveCtl answers control requests on one controller connection,
// request-reply, one writer (this goroutine); requests are read through br.
func (n *Node) serveCtl(br *bufio.Reader, conn net.Conn) {
	for {
		m, err := wire.ReadMsg(br)
		if err != nil {
			return
		}
		var reply wire.Msg
		switch v := m.(type) {
		case wire.Start:
			// Ids with the top bit set are the ACS engine's vote instances,
			// which it starts itself; a ctl start there would take a vote's
			// slot or slide the vote namespace's window past live votes.
			if v.Instance>>63 != 0 {
				n.log.Warn("ctl start in the ACS vote namespace refused", "instance", v.Instance)
				return
			}
			if err := n.StartInstance(v); err != nil {
				n.log.Warn("start instance failed", "instance", v.Instance, "err", err.Error())
				return
			}
			reply = wire.StartAck{Instance: v.Instance, From: n.cfg.ID}
		case wire.PullTable:
			tbl, ok := n.Table(v.Instance)
			if !ok {
				tbl = wire.Table{Instance: v.Instance}
			}
			reply = tbl
		case wire.PullMetrics:
			reply = n.MetricsSnapshot()
		case wire.SweepJob:
			reply = n.serveSweepJob(v)
		default:
			// Requests outside the node's own vocabulary go to the layered
			// service (the ACS engine) when one is attached.
			r, ok := wire.Msg(nil), false
			if h := n.ctlH; h != nil {
				r, ok = h(m)
			}
			if !ok {
				n.log.Warn("unexpected frame on ctl connection", "type", m.Type())
				return
			}
			reply = r
		}
		if err := conn.SetWriteDeadline(time.Now().Add(writeTimeout)); err != nil {
			n.log.Warn("ctl set write deadline failed", "err", err.Error())
			return
		}
		if err := wire.WriteMsg(conn, reply); err != nil {
			return
		}
	}
}
