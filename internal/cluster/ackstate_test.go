package cluster

import (
	"bufio"
	"net"
	"runtime"
	"testing"
	"time"

	"kset/internal/prng"
	"kset/internal/wire"
)

// peerSession reads the session node n keeps for peer's sequence space.
func peerSession(n *Node, peer int) uint64 {
	s := &n.seen[peer]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.session
}

// dialAsPeer connects to n as peer 1 in the given session and writes the
// frames after its Hello.
func dialAsPeer(t *testing.T, n *Node, session uint64, frames ...[]byte) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", n.Addr())
	if err != nil {
		t.Fatal(err)
	}
	hello := wire.Hello{From: 1, Role: wire.RolePeer, N: 2, Session: session, MaxVersion: wire.VersionBatch}
	if err := wire.WriteMsg(conn, hello); err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if _, err := conn.Write(f); err != nil {
			t.Fatal(err)
		}
	}
	return conn
}

// TestAckStateAcrossPeerRestart is the regression test for acks written to
// the wrong incarnation of a peer. Node S accepts seqs 1..M from peer P in
// session σ1 while its link to P cannot write; P then comes back as σ2. The
// first batch frame S writes to P must acknowledge nothing of σ1: σ2's
// sequence space restarted at 1, and an ack of [1..M] would drop σ2's own
// unsent frames 1..M. The receiving side holds the other half: an ack state
// naming another session than the node's own leaves the link as it was.
func TestAckStateAcrossPeerRestart(t *testing.T) {
	t.Run("restarted peer gets its own window", func(t *testing.T) {
		const m = 40
		const sigma1, sigma2 = 0x51, 0x52
		peerLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer peerLn.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewNode(Config{
			ID: 0, N: 2, K: 1, T: 0,
			Peers:      []string{ln.Addr().String(), peerLn.Addr().String()},
			Retransmit: time.Hour,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		s.SetPeerDown(1, true)
		s.Serve(ln)

		// σ1 sends M proposals; S accepts them all but cannot ack them.
		msgs := make([]wire.BatchMsg, m)
		for i := range msgs {
			msgs[i] = wire.BatchMsg{Kind: wire.TypePropose, Seq: uint64(i + 1), Instance: uint64(i + 1), From: 1, Origin: 1}
		}
		frame, err := wire.AppendBatchFrame(nil, nil, msgs)
		if err != nil {
			t.Fatal(err)
		}
		old := dialAsPeer(t, s, sigma1, frame)
		defer old.Close()
		waitFor(t, 5*time.Second, "S to accept σ1's frames", func() bool {
			return s.stats.msgsRecv.Value() == m
		})

		// P restarts as σ2; S's link heals and has a frame of its own to send.
		old.Close()
		restarted := dialAsPeer(t, s, sigma2)
		defer restarted.Close()
		waitFor(t, 5*time.Second, "S to see session σ2", func() bool {
			return peerSession(s, 1) == sigma2
		})
		s.SetPeerDown(1, false)
		s.links[1].enqueue(wire.BatchMsg{Kind: wire.TypeDecide, Instance: 9, From: 0, Value: 1})

		conn, err := peerLn.Accept()
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		br := bufio.NewReader(conn)
		if _, err := wire.ReadMsg(br); err != nil { // S's Hello
			t.Fatal(err)
		}
		first, err := wire.ReadMsg(br)
		if err != nil {
			t.Fatal(err)
		}
		b, ok := first.(wire.Batch)
		if !ok {
			t.Fatalf("first frame after the Hello is %v, want a batch", first.Type())
		}
		for seq := uint64(1); seq <= m; seq++ {
			if b.Ack.Session() == sigma1 && b.Ack.Has(seq) {
				t.Fatalf("the first batch to σ2 acknowledges σ1's seq %d (ack state %v)", seq, b.Ack)
			}
		}
		if b.Ack.Session() != sigma2 || b.Ack.End() != 1 {
			t.Errorf("ack state %v, want σ2's empty window (session %#x, watermark 1)", b.Ack, sigma2)
		}
	})

	t.Run("other session leaves the link untouched", func(t *testing.T) {
		n := unservedNode(t)
		l := n.links[1]
		plantConn(l, newFailingConn(0))
		for i := 0; i < 5; i++ {
			l.enqueue(wire.BatchMsg{Kind: wire.TypeDecide, Instance: 1, From: 0})
		}
		l.flush(false) // every frame sent once: cursor at 5, retransmitAt set
		l.mu.Lock()
		queued, cursor, retransmitAt := l.queue.len(), l.cursor, l.retransmitAt
		l.mu.Unlock()
		if queued != 5 || cursor != 5 || retransmitAt == 0 {
			t.Fatalf("after the first round: %d queued, cursor %d, retransmitAt %d", queued, cursor, retransmitAt)
		}
		for _, stale := range []wire.AckState{nil, {n.session + 1, 6}, {0, 6, ^uint64(0)}} {
			l.ack(stale)
			l.mu.Lock()
			q, c, r := l.queue.len(), l.cursor, l.retransmitAt
			l.mu.Unlock()
			if q != queued || c != cursor || r != retransmitAt {
				t.Fatalf("ack state %v moved the link: %d queued, cursor %d, retransmitAt %d", stale, q, c, r)
			}
		}
		if got := n.stats.ackRTT.Snapshot("x").Count; got != 0 {
			t.Errorf("%d round trips observed from stale ack states, want 0", got)
		}

		// In this node's session the state acks: seqs 1 and 3 (bits 0 and 2
		// above watermark 1) leave, holes 2, 4 and 5 stay, the cursor
		// follows and each acked frame is one round trip.
		l.ack(wire.AckState{n.session, 1, 0b101})
		l.mu.Lock()
		var left []uint64
		for i := 0; i < l.queue.len(); i++ {
			left = append(left, l.queue.at(i).msg.Seq)
		}
		cursor = l.cursor
		l.mu.Unlock()
		if len(left) != 3 || left[0] != 2 || left[1] != 4 || left[2] != 5 || cursor != 3 {
			t.Errorf("after acking 1 and 3: queue %v, cursor %d, want [2 4 5] and 3", left, cursor)
		}
		if got := n.stats.ackRTT.Snapshot("x").Count; got != 2 {
			t.Errorf("%d round trips observed, want 2", got)
		}
		if got := n.stats.acksPiggybacked.Value(); got != 2 {
			t.Errorf("kset_acks_piggybacked_total = %d, want 2", got)
		}
	})
}

// TestAckStateBoundedByWindow pins that what a node owes a peer in acks is
// its dedup window, not a record of traffic: with the link to the peer down,
// 10^6 accepted frames leave the ack state the size it was, the heap holds
// no per-message ack memory, and even a hole held open under a full window
// stays within MaxAckWords bit words.
func TestAckStateBoundedByWindow(t *testing.T) {
	const frames = 1_000_000
	n := unservedNode(t)
	n.SetPeerDown(1, true)
	n.resetSeenIfNewSession(1, 7)
	l := n.links[1]
	encoded := func() int {
		frame, err := wire.AppendBatchFrame(nil, n.ackState(1, nil), nil)
		if err != nil {
			t.Fatal(err)
		}
		return len(frame)
	}
	var fw frameWork
	accept := func(seq uint64) {
		n.handleSequenced(1, wire.BatchMsg{Kind: wire.TypePropose, Seq: seq, Instance: seq, From: 1, Origin: 1}, &fw)
		fw.finish(l)
	}

	before := encoded()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for seq := uint64(1); seq <= frames; seq++ {
		accept(seq)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	if got := n.stats.msgsRecv.Value(); got != frames {
		t.Fatalf("%d frames accepted, want %d", got, frames)
	}
	if after := encoded(); after != before {
		t.Errorf("ack state of %d bytes after %d frames, %d before", after, frames, before)
	}
	// A list of acks would hold 8 MB here; the window's ring is 8 KiB.
	if grew := int64(m1.HeapAlloc) - int64(m0.HeapAlloc); grew > 1<<20 {
		t.Errorf("live heap grew by %d bytes over %d accepted frames", grew, frames)
	}
	if !l.accepted.Load() {
		t.Error("the link's accepted flag is not raised")
	}

	// Hold seq frames+1 open and fill the window above it.
	for seq := uint64(frames + 2); seq < frames+1+dedupWindow; seq++ {
		accept(seq)
	}
	a := n.ackState(1, nil)
	if len(a) != 2+wire.MaxAckWords || a.Has(frames+1) || !a.Has(frames+dedupWindow) {
		t.Errorf("full window: %d bit words, want %d, with only seq %d missing", len(a)-2, wire.MaxAckWords, frames+1)
	}
	if size := encoded(); size != before+8*wire.MaxAckWords {
		t.Errorf("full window encodes to %d bytes, want %d", size, before+8*wire.MaxAckWords)
	}
}

// TestAckStateMatchesWindow checks the ack state against the window it is
// read from: MaxAckWords bit words span exactly the dedup window, and for
// random windows — watermarks at every bit offset, rings wrapped — the state
// acknowledges exactly the window's members.
func TestAckStateMatchesWindow(t *testing.T) {
	if wire.MaxAckWords*64 != dedupWindow {
		t.Fatalf("wire.MaxAckWords*64 = %d, dedupWindow = %d", wire.MaxAckWords*64, dedupWindow)
	}
	rng := prng.New(38)
	for trial := 0; trial < 200; trial++ {
		w := window{next: 1 + uint64(rng.Intn(3*dedupWindow))}
		top := uint64(0)
		for i := rng.Intn(64); i > 0; i-- {
			p := w.next + uint64(rng.Intn(dedupWindow))
			if trial%2 == 0 {
				p = w.next + uint64(rng.Intn(200))
			}
			w.set(p)
			top = max(top, p)
		}
		a := wire.AckState(w.appendWords([]uint64{1, w.next}, top))
		if len(a) > 2+wire.MaxAckWords {
			t.Fatalf("trial %d: %d bit words", trial, len(a)-2)
		}
		for p := w.next - min(w.next, 64); p < w.next+dedupWindow+64; p++ {
			if a.Has(p) != w.has(p) {
				t.Fatalf("trial %d (watermark %d, top %d): seq %d acked %v, member %v", trial, w.next, top, p, a.Has(p), w.has(p))
			}
		}
	}
}
