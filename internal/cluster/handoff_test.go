package cluster

import (
	"net"
	"sync"
	"testing"
	"time"

	"kset/internal/mpnet"
	"kset/internal/theory"
	"kset/internal/types"
	"kset/internal/wire"
)

// waitFor polls cond every millisecond until it holds or the deadline
// passes.
func waitFor(t *testing.T, within time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(within)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", within, what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestAckWithoutReverseTraffic pins the silent-direction half of the ack
// policy: an acceptance wakes no writer and the ack state rides on data, so
// when the receiver has no data to send back it leaves on its writer's tick,
// every half retransmit interval. A one-directional stream must be fully
// acked before the sender's retransmit deadline, and nothing may be sent
// twice.
func TestAckWithoutReverseTraffic(t *testing.T) {
	const msgs = 500
	const retransmit = time.Second // the receiver's tick: every 500 ms
	lb, err := StartLoopback(LoopbackConfig{N: 2, K: 1, T: 0, Seed: 5, Retransmit: retransmit})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	sender, receiver := lb.Nodes[0], lb.Nodes[1]

	// Proposals reach a node with no propose handler and prompt no reply:
	// the stream is strictly one-directional.
	for r := uint64(1); r <= msgs; r++ {
		sender.BroadcastPropose(wire.Propose{Round: r, Proposer: 0, Value: types.Value(r)})
	}
	waitFor(t, 10*time.Second, "the receiver to accept the stream", func() bool {
		return receiver.stats.msgsRecv.Value() == msgs
	})
	received := time.Now()
	l := sender.links[1]
	waitFor(t, retransmit, "the stream to be acked", func() bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.queue.len() == 0
	})
	t.Logf("acked %v after the last message was accepted", time.Since(received))
	if got := sender.stats.retransmits.Value(); got != 0 {
		t.Errorf("kset_retransmits_total = %d, want 0: the acks missed the retransmit deadline", got)
	}
	if got := receiver.stats.msgsSent.Value(); got != 0 {
		t.Errorf("receiver sent %d messages, want 0 (no reverse traffic)", got)
	}
	// kset_acks_piggybacked_total counts, on the sender, the frames the
	// receiver's ack states confirmed.
	if receiver.stats.framesSent.Value() == 0 || sender.stats.acksPiggybacked.Value() < msgs {
		t.Errorf("receiver wrote %d frames confirming %d messages, want at least one frame and %d messages",
			receiver.stats.framesSent.Value(), sender.stats.acksPiggybacked.Value(), msgs)
	}
}

// TestNoAckOnlyFramesUnderLoad pins the loaded half of the ack policy: with
// traffic in both directions every ack state rides on a data frame. The
// retransmit interval is an hour, so no tick round runs during the test and
// any frame written with no message is a violation.
func TestNoAckOnlyFramesUnderLoad(t *testing.T) {
	const n, instances, wave = 3, 600, 200
	lb, err := StartLoopback(LoopbackConfig{N: n, K: 1, T: 0, Seed: 9, Retransmit: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	nodes := append([]*Node(nil), lb.Nodes...)
	for first := uint64(1); first <= instances; first += wave {
		for id := first; id < first+wave; id++ {
			for i, node := range nodes {
				err := node.StartInstance(wire.Start{
					Instance: id, K: 1, T: 0, Proto: uint8(theory.ProtoFloodMin),
					Input: types.Value(int(id)*10 + i),
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		done := first + wave - 1
		waitFor(t, 30*time.Second, "a wave to decide everywhere", func() bool {
			for _, node := range nodes {
				if node.stats.decideLatency.Snapshot("x").Count < done {
					return false
				}
			}
			return true
		})
	}
	lb.Close() // the writers have exited: their ackOnly counts are final
	var frames, msgs, acks int64
	for i, node := range nodes {
		for peer, l := range node.links {
			if l != nil && l.ackOnly != 0 {
				t.Errorf("link %d->%d wrote %d frames with no message", i, peer, l.ackOnly)
			}
		}
		frames += node.stats.framesSent.Value()
		msgs += node.stats.msgsSent.Value()
		acks += node.stats.acksPiggybacked.Value()
	}
	if frames == 0 || acks == 0 {
		t.Fatalf("%d frames carried %d acks: the load did not engage the transport", frames, acks)
	}
	t.Logf("%d frames, %.1f msgs per frame, %.1f confirmed per frame", frames,
		float64(msgs)/float64(frames), float64(acks)/float64(frames))
}

// gateProto is a test protocol that records every payload value it is
// handed, then holds its shard loop in Deliver until the gate closes or the
// node shuts down.
type gateProto struct {
	started chan struct{}
	gate    chan struct{}
	done    <-chan struct{}

	mu   sync.Mutex
	seen map[types.Value]int
}

func (p *gateProto) Start(mpnet.API) { close(p.started) }

func (p *gateProto) Deliver(_ mpnet.API, _ types.ProcessID, m types.Payload) {
	p.mu.Lock()
	p.seen[m.Value]++
	p.mu.Unlock()
	select {
	case <-p.gate:
	case <-p.done:
	}
}

func (p *gateProto) count() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.seen)
}

// inboxRig is a one-shard node hosting instance 1 on a gateProto, and a raw
// peer connection into it that speaks as node 1.
type inboxRig struct {
	node  *Node
	proto *gateProto
	conn  net.Conn
	seq   uint64
	depth func() int64
}

func newInboxRig(t *testing.T) *inboxRig {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(Config{
		ID: 0, N: 2, K: 1, T: 0, Shards: 1,
		Peers: []string{ln.Addr().String(), "127.0.0.1:1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	n.Serve(ln)
	p := &gateProto{started: make(chan struct{}), gate: make(chan struct{}), done: n.done,
		seen: make(map[types.Value]int)}
	in, err := newInstance(n, 1, 1, 0, theory.ProtoTrivial, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	in.proto = p
	if inst, _, err := n.admit(in); inst == nil || err != nil {
		t.Fatalf("admit: inst=%v err=%v", inst, err)
	}
	select {
	case <-p.started:
	case <-time.After(10 * time.Second):
		t.Fatal("the gated instance did not start")
	}
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	err = wire.WriteMsg(conn, wire.Hello{From: 1, Role: wire.RolePeer, N: 2, Session: 1, MaxVersion: wire.VersionBatch})
	if err != nil {
		t.Fatal(err)
	}
	gauge := n.reg.Gauge(`kset_shard_mailbox_depth{shard="0"}`)
	return &inboxRig{node: n, proto: p, conn: conn, depth: gauge.Value}
}

// frame encodes the next msgs protocol messages for instance 1, each
// carrying its own sequence number as its value.
func (r *inboxRig) frame(t *testing.T, msgs int) []byte {
	t.Helper()
	batch := make([]wire.BatchMsg, msgs)
	for i := range batch {
		r.seq++
		batch[i] = wire.BatchMsg{Kind: wire.TypeProto, Seq: r.seq, Instance: 1, From: 1,
			Payload: types.Payload{Kind: types.KindInput, Value: types.Value(r.seq)}}
	}
	frame, err := wire.AppendBatchFrame(nil, nil, batch)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// fill plugs the shard loop with one message, then writes frames of per
// messages — more than the bound holds — from a goroutine (the reader stops
// reading, so the writes may block), and waits until the reader has left the
// inbox at the bound and stopped.
func (r *inboxRig) fill(t *testing.T, per, frames int) {
	t.Helper()
	if _, err := r.conn.Write(r.frame(t, 1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "the plug message to hold the loop", func() bool { return r.proto.count() == 1 })
	var stream []byte
	for i := 0; i < frames; i++ {
		stream = append(stream, r.frame(t, per)...)
	}
	written := make(chan struct{})
	go func() {
		defer close(written)
		_, _ = r.conn.Write(stream) // fails once the node closes the connection
	}()
	t.Cleanup(func() {
		r.conn.Close()
		<-written
	})
	waitFor(t, 10*time.Second, "the inbox to reach the bound", func() bool { return r.depth() >= shardMailboxDepth })
	read := r.node.stats.framesRecv.Value()
	time.Sleep(50 * time.Millisecond)
	if now := r.node.stats.framesRecv.Value(); now != read || read >= int64(frames)+1 {
		t.Fatalf("reader read %d then %d of %d frames: it did not wait at the bound", read, now, frames+1)
	}
}

// TestShardInboxBound pins the inbox's overload behaviour: with its shard
// loop held, a reader fills the inbox to the bound, overshoots by less than
// one frame, and then waits — holding no lock — instead of growing the
// inbox; releasing the loop delivers every message exactly once; and Close
// returns while a reader waits.
func TestShardInboxBound(t *testing.T) {
	const per, frames = 300, 18 // 5,400 messages against a bound of 4,096
	t.Run("wait and release", func(t *testing.T) {
		r := newInboxRig(t)
		r.fill(t, per, frames)
		if got := r.depth(); got < shardMailboxDepth || got >= shardMailboxDepth+per {
			t.Errorf("inbox depth %d, want the bound %d plus less than one %d-message frame",
				got, shardMailboxDepth, per)
		}
		close(r.proto.gate)
		total := 1 + per*frames
		waitFor(t, 10*time.Second, "every message to be delivered", func() bool { return r.proto.count() == total })
		r.proto.mu.Lock()
		defer r.proto.mu.Unlock()
		for v := 1; v <= total; v++ {
			if c := r.proto.seen[types.Value(v)]; c != 1 {
				t.Fatalf("message %d delivered %d times, want exactly once", v, c)
			}
		}
	})
	t.Run("close while waiting", func(t *testing.T) {
		r := newInboxRig(t)
		r.fill(t, per, frames)
		closed := make(chan struct{})
		go func() {
			r.node.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(10 * time.Second):
			t.Fatal("Close did not return while a reader waited on a full inbox")
		}
	})
}
