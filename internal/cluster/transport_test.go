package cluster

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"kset/internal/obs"
	"kset/internal/theory"
	"kset/internal/types"
	"kset/internal/wire"
)

// failingConn is a net.Conn whose writes start failing at a chosen call
// index, simulating a connection dying mid-flush. Reads block until close.
type failingConn struct {
	failAt int // first Write call (1-based) that fails; 0 = never
	writes int
	done   chan struct{}
}

func newFailingConn(failAt int) *failingConn {
	return &failingConn{failAt: failAt, done: make(chan struct{})}
}

func (c *failingConn) Write(p []byte) (int, error) {
	c.writes++
	if c.failAt > 0 && c.writes >= c.failAt {
		return 0, errors.New("injected write failure")
	}
	return len(p), nil
}

func (c *failingConn) Read(p []byte) (int, error) {
	<-c.done
	return 0, errors.New("closed")
}

func (c *failingConn) Close() error {
	select {
	case <-c.done:
	default:
		close(c.done)
	}
	return nil
}

func (c *failingConn) LocalAddr() net.Addr                { return &net.TCPAddr{} }
func (c *failingConn) RemoteAddr() net.Addr               { return &net.TCPAddr{} }
func (c *failingConn) SetDeadline(t time.Time) error      { return nil }
func (c *failingConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *failingConn) SetWriteDeadline(t time.Time) error { return nil }

// unservedNode builds a node whose peers are unreachable, for driving the
// link and dedup state directly.
func unservedNode(t testing.TB) *Node {
	t.Helper()
	n, err := NewNode(Config{
		ID: 0, N: 2, K: 1, T: 0,
		Peers: []string{"127.0.0.1:1", "127.0.0.1:1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

// TestSendOutOfRangeWarns: a protocol's send to an id outside 0..n-1 is
// dropped, and the node says so in one warn line.
func TestSendOutOfRangeWarns(t *testing.T) {
	var logged syncBuffer
	n, err := NewNode(Config{
		ID: 0, N: 2, K: 1, T: 0,
		Peers: []string{"127.0.0.1:1", "127.0.0.1:1"},
		Log:   obs.NewLogger(&logged, slog.LevelWarn),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	in, err := newInstance(n, 7, 1, 0, theory.ProtoTrivial, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	in.api.Send(2, types.Payload{Kind: types.KindInput, Value: 1})
	want := `event="send to an id outside 0..n-1" node=p1 instance=7 to=2 n=2`
	if got := logged.String(); !strings.Contains(got, want) || strings.Count(got, "\n") != 1 {
		t.Errorf("log %q, want the one line %q", got, want)
	}
}

// plantConn installs a hand-wired connection on the link, bypassing the dial
// path. The one-byte bufio buffer makes every frame write hit the conn
// immediately, so a write failure surfaces mid-flush rather than at the
// final Flush.
func plantConn(l *link, c net.Conn) {
	l.conn = c
	l.bw = bufio.NewWriterSize(c, 1)
}

// TestFlushStopsOnMidFlushWriteFailure is the regression test for the flush
// loop's failure handling: when a write fails partway through a round, the
// round must end immediately — remaining sequenced frames stay queued for
// retransmission and the connection is torn down exactly once. Nothing is
// owed on the ack side: the next frame carries the window as it is then.
func TestFlushStopsOnMidFlushWriteFailure(t *testing.T) {
	t.Run("sequenced frames survive", func(t *testing.T) {
		n := unservedNode(t)
		l := n.links[1]
		fc := newFailingConn(1) // every write fails
		plantConn(l, fc)
		for i := 0; i < 3; i++ {
			l.enqueue(wire.BatchMsg{Kind: wire.TypeProto, Instance: 1, From: 0,
				Payload: types.Payload{Kind: types.KindEcho, Value: types.Value(i)}})
		}
		l.flush(false)
		l.mu.Lock()
		queued := l.queue.len()
		l.mu.Unlock()
		if queued != 3 {
			t.Errorf("after mid-flush failure: %d frames queued, want all 3", queued)
		}
		if got := n.stats.framesSent.Value(); got != 0 {
			t.Errorf("frames_sent = %d, want 0 (nothing completed)", got)
		}
		if got := n.stats.connFailures.Value(); got != 1 {
			t.Errorf("conn_failures = %d, want exactly 1 teardown", got)
		}
		if fc.writes != 1 {
			t.Errorf("conn saw %d write attempts after the failure, want the failing one only", fc.writes)
		}
		if l.conn != nil {
			t.Error("connection not torn down after write failure")
		}
	})

}

// syncBuffer is a bytes.Buffer safe for a node's goroutines to log into
// while the test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestPeerHelloBelowBatchRefused pins the one thing left of version
// negotiation: a peer whose Hello does not offer the batch framing — a
// version-1 peer, or a version-2 one whose batch frames carry a list of acks
// — is refused by name, and nothing it sends afterwards is read, let alone
// delivered.
func TestPeerHelloBelowBatchRefused(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var logged syncBuffer
	n, err := NewNode(Config{
		ID: 0, N: 2, K: 1, T: 0,
		Peers: []string{ln.Addr().String(), "127.0.0.1:1"},
		Log:   obs.NewLogger(&logged, slog.LevelWarn),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	n.Serve(ln)

	for _, offered := range []uint8{1, 2} {
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		hello := wire.Hello{From: 1, Role: wire.RolePeer, N: 2, Session: 1, MaxVersion: offered}
		if err := wire.WriteMsg(conn, hello); err != nil {
			t.Fatal(err)
		}
		frame, err := wire.AppendBatchFrame(nil, nil, []wire.BatchMsg{{
			Kind: wire.TypeDecide, Seq: 1, Instance: 1, From: 1, Value: 5}})
		if err != nil {
			t.Fatal(err)
		}
		_, _ = conn.Write(frame) // the node may already have hung up
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("read after a version-%d hello: %v, want the connection closed", offered, err)
		}
		// The node logs the refusal before it closes the connection.
		want := fmt.Sprintf(`event="peer wire version refused" node=p1 peer=1 offers=%d needs=3`, offered)
		if line := logged.String(); !strings.Contains(line, want) {
			t.Errorf("log %q does not say %q", line, want)
		}
	}
	if frames, msgs := n.stats.framesRecv.Value(), n.stats.msgsRecv.Value(); frames != 0 || msgs != 0 {
		t.Errorf("refused peers got %d frames read and %d messages accepted, want 0 and 0", frames, msgs)
	}
}

// TestBatchTransportCounters pins the transport's observability counters:
// batches flow both ways, acks ride on data frames, and messages outnumber
// physical frames.
func TestBatchTransportCounters(t *testing.T) {
	lb, err := StartLoopback(LoopbackConfig{N: 2, K: 1, T: 0, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	inputs := []types.Value{5, 9}
	for id := uint64(1); id <= 4; id++ {
		startEverywhere(t, lb, id, 1, 0, theory.ProtoFloodMin, inputs)
	}
	deadline := time.Now().Add(30 * time.Second)
	survivors := allAlive(2)
	for id := uint64(1); id <= 4; id++ {
		collect(t, lb, id, survivors, deadline)
	}
	for i, node := range lb.Nodes {
		for name, c := range map[string]int64{
			"frames_sent":      node.stats.framesSent.Value(),
			"frames_recv":      node.stats.framesRecv.Value(),
			"msgs_sent":        node.stats.msgsSent.Value(),
			"msgs_recv":        node.stats.msgsRecv.Value(),
			"acks_piggybacked": node.stats.acksPiggybacked.Value(),
		} {
			if c <= 0 {
				t.Errorf("node %d: %s = %d, want > 0", i, name, c)
			}
		}
	}
}

// TestDedupWindowSemantics drives placeFrame directly: duplicates re-ack
// without redelivery, gaps within the window buffer and then advance the
// contiguous watermark, sequence numbers beyond the window are refused
// unacknowledged, and a new session resets everything.
func TestDedupWindowSemantics(t *testing.T) {
	n := unservedNode(t)
	if err := n.StartInstance(wire.Start{
		Instance: 1, K: 1, T: 0, Proto: uint8(theory.ProtoTrivial), Input: 1,
	}); err != nil {
		t.Fatal(err)
	}
	msg := func(seq uint64) wire.BatchMsg {
		return wire.BatchMsg{Kind: wire.TypeProto, Seq: seq, Instance: 1, From: 1,
			Payload: types.Payload{Kind: types.KindEcho}}
	}
	place := func(seq uint64) (bool, bool) {
		inst, accepted, _ := n.placeFrame(1, seq, msg(seq))
		return inst != nil, accepted
	}

	// Out-of-order arrival within the window: all accepted and delivered.
	for _, seq := range []uint64{3, 1, 2} {
		if deliver, accepted := place(seq); !deliver || !accepted {
			t.Fatalf("seq %d: deliver=%v accepted=%v, want true/true", seq, deliver, accepted)
		}
	}
	// Retransmissions of anything accepted re-ack without redelivery,
	// whether below the contiguous watermark or above it.
	if deliver, accepted := place(2); deliver || !accepted {
		t.Errorf("dup seq 2: deliver=%v accepted=%v, want false/true", deliver, accepted)
	}
	if _, accepted := place(5); !accepted {
		t.Fatal("seq 5 (gap) rejected")
	}
	if deliver, accepted := place(5); deliver || !accepted {
		t.Errorf("dup seq 5 above watermark: deliver=%v accepted=%v, want false/true", deliver, accepted)
	}
	// Beyond the window: refused and unacknowledged, so the peer retries.
	if deliver, accepted := place(3 + dedupWindow + 1); deliver || accepted {
		t.Errorf("seq beyond window: deliver=%v accepted=%v, want false/false", deliver, accepted)
	}
	// The window slides with the watermark: once seq 4 fills the gap the
	// watermark reaches 5, and 5+dedupWindow becomes acceptable.
	if _, accepted := place(4); !accepted {
		t.Fatal("seq 4 rejected")
	}
	if deliver, accepted := place(5 + dedupWindow); !deliver || !accepted {
		t.Errorf("seq at window edge: deliver=%v accepted=%v, want true/true", deliver, accepted)
	}
	// A new session restarts the peer's sequence space.
	n.resetSeenIfNewSession(1, 42)
	if deliver, accepted := place(1); !deliver || !accepted {
		t.Errorf("seq 1 after session reset: deliver=%v accepted=%v, want true/true", deliver, accepted)
	}
}

// TestDeadPeerFlushCostFixed pins the claim the link gauges exist to show: to
// a peer that stays away the unacked queue grows — it is unbounded here — but
// a flush round looks at none of it, however long it gets.
func TestDeadPeerFlushCostFixed(t *testing.T) {
	n := unservedNode(t)
	l := n.links[1]
	depth := n.reg.Gauge(`kset_link_queue_depth{peer="1"}`)
	unsent := n.reg.Gauge(`kset_link_unsent{peer="1"}`)
	for round := 1; round <= 3; round++ {
		for i := 0; i < 1000; i++ {
			l.enqueue(wire.BatchMsg{Kind: wire.TypeProto, Instance: 1, From: 0,
				Payload: types.Payload{Kind: types.KindEcho}})
		}
		l.flush(false) // the first dials and fails, the rest fall in its backoff window
		want := int64(1000 * round)
		if depth.Value() != want || unsent.Value() != want {
			t.Errorf("round %d: queue_depth = %d, unsent = %d, want %d each",
				round, depth.Value(), unsent.Value(), want)
		}
		if l.scanned != 0 {
			t.Fatalf("round %d: flush scanned %d frames with no connection, want 0", round, l.scanned)
		}
	}
	if got := l.mDialFailures.Value(); got != 1 {
		t.Errorf("dial failures = %d, want 1 (later rounds are inside the backoff window)", got)
	}
	// What each of those frames holds while the peer is away.
	if size := reflect.TypeOf(pendingFrame{}).Size(); size > 104 {
		t.Errorf("pendingFrame is %d bytes, want <= 104", size)
	}
}

// TestLinkOutageRecovery queues 20k frames at a peer that is down, brings the
// peer up on the same address, and requires the whole backlog to arrive
// exactly once and in sequence order, with the sender's queue drained to
// zero by the returning acks. Nothing may be sent, or counted as a
// retransmission, while there is no connection to send it on.
func TestLinkOutageRecovery(t *testing.T) {
	const frames = 20000
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peerAddr := probe.Addr().String()
	probe.Close()
	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peers := []string{ln0.Addr().String(), peerAddr}
	sender, err := NewNode(Config{ID: 0, N: 2, K: 1, T: 0, Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	defer sender.Close()
	sender.Serve(ln0)

	// Proposals reach the receiver's handler once per first acceptance, on
	// the one goroutine serving the sender's connection: the order it sees is
	// the arrival order, and a redelivery would show as a repeat.
	for r := uint64(1); r <= frames; r++ {
		sender.BroadcastPropose(wire.Propose{Round: r, Proposer: 0, Value: types.Value(r)})
	}
	l := sender.links[1]
	depth := sender.reg.Gauge(`kset_link_queue_depth{peer="1"}`)
	deadline := time.Now().Add(10 * time.Second)
	for depth.Value() != frames { // a tick's flush publishes the depth
		if time.Now().After(deadline) {
			t.Fatalf("queue_depth = %d while the peer is down, want %d", depth.Value(), frames)
		}
		time.Sleep(time.Millisecond)
	}
	if sent, re := sender.stats.framesSent.Value(), sender.stats.retransmits.Value(); sent != 0 || re != 0 {
		t.Errorf("while down: frames_sent = %d, retransmits = %d, want 0 and 0", sent, re)
	}

	var mu sync.Mutex
	var got []uint64
	receiver, err := NewNode(Config{ID: 1, N: 2, K: 1, T: 0, Peers: peers})
	if err != nil {
		t.Fatal(err)
	}
	defer receiver.Close()
	receiver.SetProposeHandler(func(p wire.Propose) {
		mu.Lock()
		got = append(got, p.Round)
		mu.Unlock()
	})
	ln1, err := net.Listen("tcp", peerAddr)
	if err != nil {
		t.Skipf("could not re-bind %s: %v", peerAddr, err)
	}
	receiver.Serve(ln1)

	deadline = time.Now().Add(30 * time.Second)
	for {
		mu.Lock()
		arrived := len(got)
		mu.Unlock()
		l.mu.Lock()
		queued := l.queue.len()
		l.mu.Unlock()
		if arrived >= frames && queued == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("at deadline: %d of %d frames arrived, %d still queued", arrived, frames, queued)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got) != frames {
		t.Fatalf("%d deliveries for %d frames", len(got), frames)
	}
	for i, r := range got {
		if r != uint64(i+1) {
			t.Fatalf("delivery %d is round %d, want %d: not exactly-once in seq order", i, r, i+1)
		}
	}
}

// TestOutOfOrderAckAcrossBlocks sends a backlog several frameQueue blocks
// long over a link that drops and duplicates, so acks arrive out of order and
// remove frames from the middle of the queue. Every frame must arrive exactly
// once, the queue must drain, and the cursor must never pass the queue's end.
func TestOutOfOrderAckAcrossBlocks(t *testing.T) {
	const frames = 6 * frameBlockLen
	lb, err := StartLoopback(LoopbackConfig{N: 2, K: 1, T: 0, Seed: 26,
		Retransmit: 10 * time.Millisecond,
		Faults:     Faults{Drop: 0.2, Dup: 0.2}})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	sender, receiver := lb.Nodes[0], lb.Nodes[1]
	var mu sync.Mutex
	got := make(map[uint64]int)
	receiver.SetProposeHandler(func(p wire.Propose) {
		mu.Lock()
		got[p.Round]++
		mu.Unlock()
	})
	for r := uint64(1); r <= frames; r++ {
		sender.BroadcastPropose(wire.Propose{Round: r, Proposer: 0, Value: types.Value(r)})
	}
	l := sender.links[1]
	waitFor(t, 30*time.Second, "the backlog to be delivered and acked", func() bool {
		l.mu.Lock()
		queued, cursor := l.queue.len(), l.cursor
		l.mu.Unlock()
		if cursor > queued {
			t.Fatalf("cursor %d past the queue's %d frames", cursor, queued)
		}
		mu.Lock()
		defer mu.Unlock()
		return len(got) == frames && queued == 0
	})
	mu.Lock()
	defer mu.Unlock()
	for r := uint64(1); r <= frames; r++ {
		if got[r] != 1 {
			t.Fatalf("round %d delivered %d times, want exactly once", r, got[r])
		}
	}
	if sender.stats.dropsInjected.Value() == 0 || sender.stats.dupsInjected.Value() == 0 {
		t.Errorf("drops %d, dups %d: the injector did not engage",
			sender.stats.dropsInjected.Value(), sender.stats.dupsInjected.Value())
	}
}

// TestUnreachablePeerNoWake pins that a writer whose dial is backing off is
// not woken per message: after the first dial failure, 10^4 enqueues leave
// its round count within the ticks that elapsed plus the round that dialed.
func TestUnreachablePeerNoWake(t *testing.T) {
	const retransmit = 100 * time.Millisecond // the writer ticks every 50 ms
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n, err := NewNode(Config{
		ID: 0, N: 2, K: 1, T: 0,
		Peers:      []string{ln.Addr().String(), "127.0.0.1:1"},
		Retransmit: retransmit,
	})
	if err != nil {
		t.Fatal(err)
	}
	begin := time.Now()
	n.Serve(ln) // starts the writer
	l := n.links[1]
	msg := wire.BatchMsg{Kind: wire.TypeProto, Instance: 1, From: 0,
		Payload: types.Payload{Kind: types.KindEcho}}
	l.enqueue(msg)
	waitFor(t, 10*time.Second, "the first dial to fail", func() bool { return l.mDialFailures.Value() > 0 })
	for i := 0; i < 10000; i++ {
		l.enqueue(msg)
	}
	n.Close() // the writer has exited: rounds is final
	ticks := int64(time.Since(begin) / (retransmit / 2))
	if l.rounds > ticks+1 {
		t.Errorf("writer ran %d rounds in %d ticks, want at most %d", l.rounds, ticks, ticks+1)
	}
	if got := l.queue.len(); got != 10001 {
		t.Errorf("%d frames queued, want all 10001", got)
	}
}
