package cluster

import (
	"errors"
	"math"
	"net"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"kset/internal/obs"
	"kset/internal/theory"
	"kset/internal/types"
	"kset/internal/wire"
)

// TestConfigValidation pins NewNode's rejection of a negative Retransmit,
// which used to slip through to the link writer (whose ticker panics on
// non-positive periods).
func TestConfigValidation(t *testing.T) {
	base := Config{ID: 0, N: 2, K: 1, T: 0, Peers: []string{"a", "b"}}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"negative retransmit", func(c *Config) { c.Retransmit = -time.Millisecond }},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if _, err := NewNode(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: NewNode error = %v, want ErrBadConfig", tc.name, err)
		}
	}
	// Zero still selects the defaults rather than erroring.
	n, err := NewNode(base)
	if err != nil {
		t.Fatalf("zero timing config rejected: %v", err)
	}
	n.Close()
}

// TestFlushKeepsFramesOnDialFailure pins what an unreachable peer costs and
// keeps: flush asks for the connection first, so with none to be had it
// leaves the queue alone — nothing is sent, nothing counts as a
// retransmission — and on recovery the frame leaves in one batch frame with
// the ack state. This drives one link by hand through dial failure, backoff,
// and recovery.
func TestFlushKeepsFramesOnDialFailure(t *testing.T) {
	// Bind-then-close yields an address that refuses connections now but can
	// be re-bound later for the recovery phase.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	peerAddr := probe.Addr().String()
	probe.Close()

	n, err := NewNode(Config{
		ID: 0, N: 2, K: 1, T: 0,
		Peers:      []string{"127.0.0.1:1", peerAddr},
		Retransmit: 5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	l := n.links[1]

	// One sequenced frame is waiting when the peer is unreachable.
	l.enqueue(wire.BatchMsg{Kind: wire.TypeProto, Instance: 1, From: 0,
		Payload: types.Payload{Kind: types.KindEcho}})

	l.flush(false) // dial fails
	l.mu.Lock()
	queued := l.queue.len()
	l.mu.Unlock()
	if queued != 1 {
		t.Fatalf("after failed dial: %d queued frames, want 1", queued)
	}
	if got := l.mDialFailures.Value(); got != 1 {
		t.Errorf("dial failures = %d, want 1", got)
	}
	if got := n.stats.framesSent.Value(); got != 0 {
		t.Errorf("frames sent = %d, want 0", got)
	}

	// A second round past the retransmit interval, with the dial in backoff:
	// no connection took the frame, so it is still a first attempt waiting —
	// not a retransmission.
	time.Sleep(10 * time.Millisecond)
	l.flush(false)
	if got := n.stats.retransmits.Value() + l.mRetransmits.Value(); got != 0 {
		t.Errorf("retransmits (node + per-peer) = %d while unreachable, want 0", got)
	}
	if got := n.stats.framesSent.Value(); got != 0 {
		t.Errorf("frames sent = %d while unreachable, want 0", got)
	}
	l.mu.Lock()
	queued = l.queue.len()
	l.mu.Unlock()
	if queued != 1 {
		t.Fatalf("after backoff round: %d queued frames, want 1", queued)
	}

	// Recovery: the peer comes back on the same address; the next flush must
	// deliver the frame in one batch frame.
	ln, err := net.Listen("tcp", peerAddr)
	if err != nil {
		t.Skipf("could not re-bind %s: %v", peerAddr, err)
	}
	defer ln.Close()
	l.nextDialAt = time.Time{} // cancel the backoff window
	time.Sleep(10 * time.Millisecond)
	l.flush(false)

	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	first, err := wire.ReadMsg(conn)
	if err != nil {
		t.Fatal(err)
	}
	if h, ok := first.(wire.Hello); !ok || h.MaxVersion != wire.VersionBatch {
		t.Fatalf("first frame = %#v, want a Hello offering the batch framing", first)
	}
	second, err := wire.ReadMsg(conn)
	if err != nil {
		t.Fatal(err)
	}
	b, ok := second.(wire.Batch)
	if !ok || len(b.Ack) != 2 || b.Ack[1] != 1 || len(b.Msgs) != 1 || b.Msgs[0].Instance != 1 {
		t.Fatalf("second frame = %#v, want one batch with the queued proto and an empty ack state", second)
	}
	if got := n.stats.retransmits.Value(); got != 0 {
		t.Errorf("retransmits = %d after the frame's first transmission, want 0", got)
	}
}

// TestMetricsPull runs a real loopback instance to completion and checks the
// PullMetrics path end to end: every node serves its counters, gauges and
// histogram snapshots over the control connection, the decide-latency
// histogram has recorded the local decision, the cluster-wide merge sees all
// three, and the Prometheus exposition contains the histogram series.
func TestMetricsPull(t *testing.T) {
	const n = 3
	lb, err := StartLoopback(LoopbackConfig{N: n, K: 1, T: 0, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()

	inputs := []types.Value{4, 1, 6}
	startEverywhere(t, lb, 2, 1, 0, theory.ProtoFloodMin, inputs)
	deadline := time.Now().Add(10 * time.Second)
	collect(t, lb, 2, allAlive(n), deadline)

	var perNode []obs.HistSnapshot
	for i := range lb.Nodes {
		c, err := DialNode(lb.Addrs[i], 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		m, err := c.Metrics()
		c.Close()
		if err != nil {
			t.Fatalf("pull metrics from node %d: %v", i, err)
		}
		found, ok := m.Hist("kset_decide_latency_seconds")
		if !ok {
			t.Fatalf("node %d metrics lack kset_decide_latency_seconds (%d hists)", i, len(m.Hists))
		}
		if found.Count < 1 {
			t.Errorf("node %d decide latency count = %d, want >= 1", i, found.Count)
		}
		if found.Count > 0 && (found.Min <= 0 || found.Max < found.Min) {
			t.Errorf("node %d decide latency extrema [%v, %v] implausible", i, found.Min, found.Max)
		}
		perNode = append(perNode, found)
		// The counters and gauges travel in the same reply, read off the
		// same registry the node's own handles update.
		if got, want := m.Value("kset_msgs_recv_total"), lb.Nodes[i].stats.msgsRecv.Value(); got <= 0 || got > want {
			t.Errorf("node %d pulled kset_msgs_recv_total = %d, registry now reads %d", i, got, want)
		}
		if !sort.SliceIsSorted(m.Values, func(a, b int) bool { return m.Values[a].Name < m.Values[b].Name }) {
			t.Errorf("node %d metric values not sorted by name", i)
		}
	}
	merged := obs.MergeSnapshots(perNode)
	if merged.Count != n {
		t.Errorf("cluster-wide decide count = %d, want %d", merged.Count, n)
	}

	// The same histogram must appear in the Prometheus exposition ksetd
	// serves over HTTP.
	var b strings.Builder
	if err := lb.Nodes[0].Metrics().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# TYPE kset_decide_latency_seconds histogram",
		`kset_decide_latency_seconds_bucket{le="+Inf"}`,
		"kset_decide_latency_seconds_count 1",
		"kset_frames_sent_total",
		`kset_link_dials_total{peer="1"}`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
}

// TestHistWireRoundTrip pins histFromWire as the inverse of histToWire up to
// the wire's microsecond resolution — bounds and counts exactly, so that
// snapshots pulled from different nodes still merge — and an empty histogram
// back to obs's infinite extrema.
func TestHistWireRoundTrip(t *testing.T) {
	h := obs.NewHistogram(nil)
	for _, v := range []float64{0.00004, 0.0007, 0.0007, 0.03, 45} {
		h.Observe(v)
	}
	want := h.Snapshot("lat")
	got := histFromWire(histToWire(want))
	if got.Name != want.Name || got.Count != want.Count ||
		!reflect.DeepEqual(got.Bounds, want.Bounds) || !reflect.DeepEqual(got.Counts, want.Counts) {
		t.Errorf("round trip changed the histogram:\n%+v\nvs\n%+v", got, want)
	}
	for _, q := range []float64{0, 0.5, 0.95, 1} {
		if d := got.Quantile(q) - want.Quantile(q); math.Abs(d) > 1e-6 {
			t.Errorf("q%v moved by %v s, more than a microsecond", q, d)
		}
	}
	if d := got.Mean() - want.Mean(); math.Abs(d) > 1e-6 {
		t.Errorf("mean moved by %v s, more than a microsecond", d)
	}
	empty := histFromWire(histToWire(obs.NewHistogram(nil).Snapshot("lat")))
	if empty.Count != 0 || !math.IsInf(empty.Min, 1) || !math.IsInf(empty.Max, -1) {
		t.Errorf("empty histogram came back as count %d, extrema [%v, %v]", empty.Count, empty.Min, empty.Max)
	}
}
