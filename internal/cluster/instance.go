package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"kset/internal/mpnet"
	"kset/internal/prng"
	"kset/internal/theory"
	"kset/internal/trace"
	"kset/internal/types"
	"kset/internal/wire"
)

// instance is one running consensus instance: an mpnet.Protocol driven by
// network deliveries instead of a simulated schedule. All protocol calls —
// Start, Deliver, backlog replay, self-send draining — happen on the owning
// shard's loop goroutine, preserving mpnet's single-threaded protocol
// contract; connection readers only feed the shard inbox and the decision
// table. An idle instance costs a map entry, not a goroutine.
type instance struct {
	node  *Node
	shard *shard
	id    uint64
	k, t  int
	input types.Value
	proto mpnet.Protocol
	rng   *prng.Source // built by the first instanceAPI.Rand call
	api   instanceAPI

	// backlog holds the frames buffered before the Start arrived, claimed
	// by admit under the shard lock and replayed by start.
	backlog []wire.BatchMsg

	// Owned by the shard loop, read and written only there, so no lock:
	// decided latches the local decision; self holds the pending
	// self-deliveries, drained between events.
	decided bool
	self    []types.Payload

	// mu guards the decision table, which the connection readers fill from
	// peers' decide announcements while the shard loop fills its own row.
	mu        sync.Mutex
	rows      []wire.TableRow // decision table, indexed by node id
	tableDone bool            // full table observed (latency recorded once)

	// archived is set under mu by the eviction that wins: rows is frozen
	// from then on, and the shard loop runs no more protocol code for it.
	archived atomic.Bool

	// startedAt is stamped at construction, before any frame can be
	// delivered, and read from both the shard loop (Decide) and the
	// connection readers (recordDecision); it is immutable thereafter.
	startedAt time.Time
}

func newInstance(n *Node, id uint64, k, t int, proto theory.ProtocolID, ell int, input types.Value) (*instance, error) {
	factory, err := trace.ProtocolSpec{Proto: proto, Ell: ell}.MPFactory()
	if err != nil {
		return nil, fmt.Errorf("cluster: instance %d: %w", id, err)
	}
	in := &instance{
		node:      n,
		id:        id,
		k:         k,
		t:         t,
		input:     input,
		proto:     factory(n.cfg.ID),
		rows:      make([]wire.TableRow, n.cfg.N),
		startedAt: time.Now(),
	}
	in.api.in = in
	return in, nil
}

// recordDecision fills one row of the decision table, unless the instance is
// archived. The first announcement wins; a correct node never announces
// twice with different values, and for a faulty one any stable choice is as
// good as another. The decide observer and the eviction the row completes —
// a full table, or a stranded one (strandedLocked) — run after the lock is
// released.
func (in *instance) recordDecision(node types.ProcessID, val types.Value) {
	if int(node) < 0 || int(node) >= len(in.rows) {
		return
	}
	in.mu.Lock()
	if in.archived.Load() || in.rows[node].Decided {
		in.mu.Unlock()
		return
	}
	in.rows[node] = wire.TableRow{Decided: true, Value: val}
	done := in.observeTableLocked()
	stranded := !done && in.strandedLocked()
	in.mu.Unlock()
	in.node.notifyDecide(in, node, val, done, stranded)
}

// observeTableLocked records the start-to-complete-table latency the first
// time every row is filled — the moment the checker could certify this
// instance from the local view — and reports that transition. Called with
// in.mu held.
func (in *instance) observeTableLocked() bool {
	if in.tableDone {
		return false
	}
	for i := range in.rows {
		if !in.rows[i].Decided {
			return false
		}
	}
	in.tableDone = true
	in.node.stats.tableLatency.Observe(time.Since(in.startedAt).Seconds())
	return true
}

// strandedLocked is the second completion rule: a ctl instance whose own
// row and at least n − t rows are decided, and every undecided row's peer
// unreachable — a dial to it failed and none has succeeded since — retires
// with its table incomplete. That peer counts as one of the instance's t
// faults: a row it sends later finds the id retired. ACS votes are left to
// the engine's ReleaseInstance, which may still need a late row to resolve a
// slot. Called with in.mu held.
func (in *instance) strandedLocked() bool {
	if in.id>>63 != 0 || in.archived.Load() || !in.rows[in.node.cfg.ID].Decided {
		return false
	}
	missing := 0
	for i := range in.rows {
		if in.rows[i].Decided {
			continue
		}
		if missing++; missing > in.t || !in.node.links[i].unreachable.Load() {
			return false
		}
	}
	return missing > 0 // a full table is the other rule's
}

// start runs the protocol's Start and replays the backlog buffered before
// the instance was registered. Called only from the shard loop.
func (in *instance) start() {
	in.proto.Start(&in.api)
	in.drainSelf()
	for _, m := range in.backlog {
		in.deliverBacklog(m)
	}
	in.backlog = nil
}

// deliverProto feeds one network message to the protocol, then drains the
// self-sends it queued, mirroring mpnet's runtime. Called only from the
// shard loop.
func (in *instance) deliverProto(from types.ProcessID, p types.Payload) {
	in.proto.Deliver(&in.api, from, p)
	in.drainSelf()
}

// deliverBacklog replays one message that was buffered before the instance
// started locally. Buffered messages never passed through deliver, so both
// protocol messages and decide announcements are applied here.
func (in *instance) deliverBacklog(bm wire.BatchMsg) {
	switch bm.Kind {
	case wire.TypeProto:
		in.deliverProto(bm.From, bm.Payload)
	case wire.TypeDecide:
		in.recordDecision(bm.From, bm.Value)
	}
}

// drainSelf delivers self-sends queued during the previous handler, plus any
// they generate, before the next network delivery. The emptied queue keeps
// its backing array for the next handler.
func (in *instance) drainSelf() {
	for i := 0; i < len(in.self); i++ {
		in.proto.Deliver(&in.api, in.node.cfg.ID, in.self[i])
	}
	in.self = in.self[:0]
}

// instanceAPI adapts the cluster transport to the mpnet.API the protocol
// implementations were written against. All methods are called from the
// owning shard's loop goroutine only.
type instanceAPI struct {
	in *instance
}

func (a *instanceAPI) ID() types.ProcessID { return a.in.node.cfg.ID }
func (a *instanceAPI) N() int              { return a.in.node.cfg.N }
func (a *instanceAPI) T() int              { return a.in.t }
func (a *instanceAPI) K() int              { return a.in.k }
func (a *instanceAPI) Input() types.Value  { return a.in.input }

// Rand builds the stream on first use (FloodMin never draws). The seed mixes
// (node, instance) through splitmix64: XOR folding let distinct pairs collide.
func (a *instanceAPI) Rand() *prng.Source {
	if a.in.rng == nil {
		a.in.rng = prng.New(prng.MixSeed(a.in.node.cfg.Seed, uint64(a.in.node.cfg.ID), a.in.id))
	}
	return a.in.rng
}

// Send transmits p to process `to`. A self-send is queued locally and
// delivered after the current handler returns, exactly as in mpnet: a
// process hears itself without network delay and without handler reentry.
// A send to an id outside 0..n-1 is a protocol bug; it is dropped with a
// warning.
func (a *instanceAPI) Send(to types.ProcessID, p types.Payload) {
	in := a.in
	if to == in.node.cfg.ID {
		in.self = append(in.self, p)
		return
	}
	if int(to) < 0 || int(to) >= in.node.cfg.N {
		in.node.log.Warn("send to an id outside 0..n-1",
			"instance", in.id, "to", int(to), "n", in.node.cfg.N)
		return
	}
	if l := in.node.links[to]; l != nil {
		l.enqueue(wire.BatchMsg{
			Kind: wire.TypeProto, Instance: in.id, From: in.node.cfg.ID, Payload: p,
		})
	}
}

// Broadcast sends p to every process, itself included.
func (a *instanceAPI) Broadcast(p types.Payload) {
	for i := 0; i < a.in.node.cfg.N; i++ {
		a.Send(types.ProcessID(i), p)
	}
}

// Decide observes the local decision's latency, announces it to every peer
// so that each node can assemble the full decision table, and records it in
// the local table (an instance archived meanwhile gets no row).
func (a *instanceAPI) Decide(v types.Value) {
	in := a.in
	elapsed := time.Since(in.startedAt)
	if in.decided {
		in.node.log.Warn("instance decided twice", "instance", in.id)
		return
	}
	in.decided = true
	in.node.stats.decideLatency.Observe(elapsed.Seconds())
	if log := in.node.log; log.Enabled(context.Background(), slog.LevelInfo) {
		log.Info("decided",
			"instance", in.id, "value", int64(v),
			"latency_us", elapsed.Microseconds())
	}
	in.node.broadcastPeers(wire.BatchMsg{
		Kind: wire.TypeDecide, Instance: in.id, From: in.node.cfg.ID, Value: v,
	})
	in.recordDecision(in.node.cfg.ID, v)
}

// HasDecided reports whether Decide has been called.
func (a *instanceAPI) HasDecided() bool { return a.in.decided }
