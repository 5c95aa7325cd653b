package acs

import (
	"log/slog"
	"math/bits"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"kset/internal/cluster"
	"kset/internal/obs"
	"kset/internal/types"
	"kset/internal/wire"
)

// TestVoteInstanceRoundTrip checks the dense vote-id layout at n = 1, 4 and
// wire.MaxProcs: every slot up to the largest legal round round-trips and
// keeps the namespace bit, consecutive rounds are consecutive ids, the first
// round past maxRound would overflow into the ctl namespace and a proposal
// for it is refused, and a ctl-namespace id is not split.
func TestVoteInstanceRoundTrip(t *testing.T) {
	for _, n := range []int{1, 4, wire.MaxProcs} {
		last := types.ProcessID(n - 1)
		top := maxRound(n)
		for _, tc := range []struct {
			round    uint64
			proposer types.ProcessID
		}{{1, 0}, {1, last}, {42, last / 2}, {top, 0}, {top, last}} {
			id := VoteInstance(tc.round, tc.proposer, n)
			if id&idBit == 0 {
				t.Errorf("n=%d: VoteInstance(%d, %d) = %#x lacks the namespace bit", n, tc.round, tc.proposer, id)
			}
			r, p, ok := splitVoteInstance(id, n)
			if !ok || r != tc.round || p != tc.proposer {
				t.Errorf("n=%d: split(VoteInstance(%d, %d)) = (%d, %d, %v)", n, tc.round, tc.proposer, r, p, ok)
			}
		}
		if got, want := VoteInstance(8, 0, n), VoteInstance(7, last, n)+1; got != want {
			t.Errorf("n=%d: round 8's first vote id %#x, want %#x right after round 7's last", n, got, want)
		}
		if hi, lo := bits.Mul64(top+1, uint64(n)); hi == 0 && lo+uint64(last) < idBit {
			t.Errorf("n=%d: round %d past maxRound still fits below the namespace bit", n, top+1)
		}
		e := &Engine{n: n, states: make(map[uint64]*roundState)}
		e.onPropose(wire.Propose{Round: top + 1, Proposer: last, Value: 1})
		if e.maxAct != 0 || len(e.states) != 0 {
			t.Errorf("n=%d: a proposal for round %d past maxRound activated rounds up to %d", n, top+1, e.maxAct)
		}
		if _, _, ok := splitVoteInstance(7, n); ok {
			t.Errorf("n=%d: splitVoteInstance accepted a ctl-namespace instance id", n)
		}
		e.onDecide(7, 0, 1) // a ctl id: no round state to touch, no panic
	}
}

func TestNewRejectsLargeT(t *testing.T) {
	node, err := cluster.NewNode(cluster.Config{
		ID: 0, N: 2, K: 1, T: 1,
		Peers: []string{"127.0.0.1:1", "127.0.0.1:2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	if _, err := New(Config{Node: node}); err == nil {
		t.Fatal("New accepted t >= n/2 (certificates could collide)")
	}
}

// startAcsLoopback builds an n-node loopback cluster with an ACS engine
// attached to every node before it serves.
func startAcsLoopback(t *testing.T, n, tt int, faults cluster.Faults, retransmit time.Duration) (*cluster.Loopback, []*Engine) {
	t.Helper()
	return startAcsLoopbackCfg(t, cluster.LoopbackConfig{
		N: n, K: tt + 1, T: tt,
		Seed:       0xACE5,
		Faults:     faults,
		Retransmit: retransmit,
	})
}

// startAcsLoopbackCfg is startAcsLoopback for a caller that sets more of the
// cluster configuration; it fills in Attach.
func startAcsLoopbackCfg(t *testing.T, cfg cluster.LoopbackConfig) (*cluster.Loopback, []*Engine) {
	t.Helper()
	engines := make([]*Engine, cfg.N)
	var mu sync.Mutex
	cfg.Attach = func(node *cluster.Node) {
		e, err := New(Config{Node: node})
		if err != nil {
			t.Errorf("attach acs to node %d: %v", node.ID(), err)
			return
		}
		mu.Lock()
		engines[node.ID()] = e
		mu.Unlock()
	}
	lb, err := cluster.StartLoopback(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return lb, engines
}

func waitUntil(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestCommonSubsetCtl drives ACS over the control path, as ksetctl would:
// every node submits a distinct value (each submit opens a fresh round on
// its node; peer proposals may already have activated earlier rounds with
// noops), every value must land at its assigned round, and the pulled logs
// must be identical on all nodes.
func TestCommonSubsetCtl(t *testing.T) {
	const n = 3
	lb, _ := startAcsLoopback(t, n, 0, cluster.Faults{}, 0)
	defer lb.Close()

	clients := make([]*cluster.Client, n)
	for i := range clients {
		c, err := cluster.DialNode(lb.Addrs[i], 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}
	rounds := make([]uint64, n)
	for i, c := range clients {
		round, err := c.AcsSubmit(types.Value(100 + i))
		if err != nil {
			t.Fatalf("submit to node %d: %v", i, err)
		}
		rounds[i] = round
	}
	logs := make([]wire.Log, n)
	waitUntil(t, 10*time.Second, "all logs to reach 3 entries", func() bool {
		for i, c := range clients {
			lg, err := c.Log(0, wire.MaxLogEntries)
			if err != nil {
				return false
			}
			logs[i] = lg
			if lg.Total < n {
				return false
			}
		}
		return true
	})
	for i := 1; i < n; i++ {
		if !reflect.DeepEqual(logs[0], logs[i]) {
			t.Errorf("log divergence between nodes 0 and %d:\n%v\nvs\n%v", i, logs[0], logs[i])
		}
	}
	for i := range clients {
		found := false
		for _, le := range logs[0].Entries {
			if le.Proposer == types.ProcessID(i) && le.Value == types.Value(100+i) {
				if le.Round != rounds[i] {
					t.Errorf("node %d value at round %d, assigned %d", i, le.Round, rounds[i])
				}
				found = true
			}
		}
		if !found {
			t.Errorf("node %d's value missing from log %v", i, logs[0].Entries)
		}
	}
	// The submitter's slot in its assigned round must be a held, non-noop
	// IN slot on every node.
	for i := range clients {
		for j, c := range clients {
			ar, err := c.AcsRound(rounds[i])
			if err != nil {
				t.Fatal(err)
			}
			if !ar.Closed || len(ar.Slots) != n {
				t.Fatalf("node %d round %d = %+v, want closed with %d slots", j, rounds[i], ar, n)
			}
			s := ar.Slots[i]
			if s.Status != wire.AcsIn || !s.Held || s.Noop || s.Value != types.Value(100+i) {
				t.Errorf("node %d round %d slot %d = %+v, want held non-noop IN value %d", j, rounds[i], i, s, 100+i)
			}
		}
	}
}

// lockedWriter collects what the nodes of a test cluster log.
type lockedWriter struct {
	mu sync.Mutex
	sb strings.Builder
}

func (w *lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sb.Write(p)
}

func (w *lockedWriter) String() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sb.String()
}

// TestFirstRoundNeedsNoRetransmit is the regression test for the proposals a
// fresh connection lost, when a link's first frames took a second framing
// whose receive path had no case for acs-propose and only the retransmit
// timer recovered them. A link now sends batch frames from its first write:
// with that timer at 2 s, the first round of a fresh cluster (node 3 crashed,
// as the log requires) must close on every survivor well inside a second, and
// no node may complain about a frame.
func TestFirstRoundNeedsNoRetransmit(t *testing.T) {
	const n, tt, crashed = 4, 1, 3
	var logged lockedWriter
	lb, engines := startAcsLoopbackCfg(t, cluster.LoopbackConfig{
		N: n, K: tt + 1, T: tt,
		Seed:       0xACE5,
		Retransmit: 2 * time.Second,
		Log:        obs.NewLogger(&logged, slog.LevelWarn),
	})
	defer lb.Close()
	lb.Crash(crashed)

	begin := time.Now()
	round, err := engines[0].Submit(42)
	if err != nil {
		t.Fatal(err)
	}
	waitUntil(t, time.Second, "the first round to close on every survivor", func() bool {
		for i := 0; i < n-1; i++ {
			if engines[i].Closed() < round {
				return false
			}
		}
		return true
	})
	t.Logf("first round closed on all survivors in %v", time.Since(begin))
	var complaints []string
	for _, line := range strings.Split(logged.String(), "\n") {
		if strings.Contains(line, "frame") {
			complaints = append(complaints, line)
		}
	}
	if len(complaints) > 0 {
		t.Errorf("nodes complained about frames: %q", complaints)
	}
}

// TestCtlRejectedWithoutEngine pins the failure mode of pointing acs
// subcommands at a node that is not serving ACS: the control connection is
// closed, surfacing as an error, never a hang.
func TestCtlRejectedWithoutEngine(t *testing.T) {
	lb, err := cluster.StartLoopback(cluster.LoopbackConfig{N: 1, K: 1, T: 0, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	c, err := cluster.DialNode(lb.Addrs[0], 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.AcsSubmit(5); err == nil {
		t.Fatal("AcsSubmit succeeded against a node with no ACS engine")
	}
}

// TestAcsSoak is the PR's acceptance soak: a 4-node cluster, fault bound
// t=1, with one node crashed from the start and a flapping link plus the
// seeded fault injector on every other link. Survivors drive 50 submissions
// through the engine; every activated round must close on every survivor,
// every closed round must admit at least n−t proposals, the three ordered
// logs must be identical, and every submitted value must appear exactly
// once at its assigned round. Runs under -race in CI (make race-live).
func TestAcsSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const (
		n       = 4
		tt      = 1
		crashed = 3
		submits = 50
	)
	lb, engines := startAcsLoopback(t, n, tt, cluster.Faults{
		Drop:     0.10,
		Dup:      0.05,
		Delay:    0.15,
		MaxDelay: 3 * time.Millisecond,
	}, 10*time.Millisecond)
	defer lb.Close()

	// The crash precedes every submission, so exactly t processes are
	// faulty: FloodMin's wait-for-n−t barrier then pins each vote to the
	// survivor set and every round closes deterministically (see the
	// package comment's termination discussion).
	lb.Crash(crashed)

	flapDone := make(chan struct{})
	go func() {
		defer close(flapDone)
		for i := 0; i < 10; i++ {
			lb.Nodes[0].SetPeerDown(1, true)
			time.Sleep(10 * time.Millisecond)
			lb.Nodes[0].SetPeerDown(1, false)
			time.Sleep(10 * time.Millisecond)
		}
	}()

	type submitted struct {
		node  int
		round uint64
		value types.Value
	}
	var subs []submitted
	maxAssigned := uint64(0)
	for i := 0; i < submits; i++ {
		node := i % (n - 1) // round-robin over survivors
		v := types.Value(1000 + i)
		round, err := engines[node].Submit(v)
		if err != nil {
			t.Fatalf("submit %d to node %d: %v", i, node, err)
		}
		subs = append(subs, submitted{node: node, round: round, value: v})
		if round > maxAssigned {
			maxAssigned = round
		}
	}
	if maxAssigned < submits/(n-1) {
		t.Fatalf("max assigned round %d, want >= %d", maxAssigned, submits/(n-1))
	}

	waitUntil(t, 2*time.Minute, "all survivors to close every activated round", func() bool {
		for i := 0; i < n-1; i++ {
			if engines[i].Closed() < maxAssigned {
				return false
			}
		}
		return true
	})
	<-flapDone

	// Logs must be byte-identical across survivors.
	ref := engines[0].LogWindow(0, wire.MaxLogEntries)
	if ref.Total != uint64(len(ref.Entries)) {
		t.Fatalf("log window truncated: total %d, pulled %d", ref.Total, len(ref.Entries))
	}
	for i := 1; i < n-1; i++ {
		got := engines[i].LogWindow(0, wire.MaxLogEntries)
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("log divergence between survivors 0 and %d:\n%v\nvs\n%v", i, ref, got)
		}
	}

	// Every submitted value appears exactly once, at its assigned round.
	seen := make(map[types.Value]wire.LogEntry)
	for _, le := range ref.Entries {
		if prev, dup := seen[le.Value]; dup {
			t.Fatalf("value %d logged twice: %+v and %+v", le.Value, prev, le)
		}
		seen[le.Value] = le
	}
	for _, s := range subs {
		le, ok := seen[s.value]
		if !ok {
			t.Fatalf("submitted value %d (node %d, round %d) missing from log", s.value, s.node, s.round)
		}
		if le.Round != s.round || le.Proposer != types.ProcessID(s.node) {
			t.Fatalf("value %d logged as %+v, want round %d proposer %d", s.value, le, s.round, s.node)
		}
	}

	// Every closed round admits >= n−t members, and the per-round slot
	// views agree across survivors.
	for r := uint64(1); r <= maxAssigned; r++ {
		refRound := engines[0].Round(r)
		if !refRound.Closed {
			t.Fatalf("round %d not closed on survivor 0", r)
		}
		in := 0
		for _, s := range refRound.Slots {
			if s.Status == wire.AcsIn {
				in++
			}
		}
		if in < n-tt {
			t.Errorf("round %d admitted %d proposals, want >= %d", r, in, n-tt)
		}
		for i := 1; i < n-1; i++ {
			got := engines[i].Round(r)
			if !reflect.DeepEqual(refRound, got) {
				t.Fatalf("round %d view divergence between survivors 0 and %d:\n%+v\nvs\n%+v", r, i, refRound, got)
			}
		}
	}

	// The engine's internal certificates were checked at every closure;
	// any violation would have been counted.
	for i := 0; i < n-1; i++ {
		if v := engines[i].node.Metrics().Counter("kset_acs_check_failures_total").Value(); v != 0 {
			t.Errorf("survivor %d recorded %d acs check failures", i, v)
		}
	}
}

func TestLogWindow(t *testing.T) {
	e := &Engine{next: 1}
	for i := 0; i < 10; i++ {
		e.entries = append(e.entries, wire.LogEntry{Round: uint64(i + 1), Proposer: 0, Value: types.Value(i)})
	}
	lg := e.LogWindow(3, 4)
	if lg.Total != 10 || lg.Start != 3 || len(lg.Entries) != 4 || lg.Entries[0].Value != 3 {
		t.Errorf("LogWindow(3, 4) = %+v", lg)
	}
	if lg := e.LogWindow(8, 100); len(lg.Entries) != 2 {
		t.Errorf("tail window returned %d entries, want 2", len(lg.Entries))
	}
	if lg := e.LogWindow(20, 5); lg.Entries != nil || lg.Total != 10 {
		t.Errorf("past-end window = %+v", lg)
	}
	if lg := e.LogWindow(0, 0); lg.Entries != nil || lg.Total != 10 {
		t.Errorf("length-only window = %+v", lg)
	}
	if lg := e.LogWindow(0, -3); lg.Entries != nil {
		t.Errorf("negative max returned entries: %+v", lg)
	}
}

// TestEmitClosedDisabledAllocsNothing pins the guard on a round-closure
// event: with the log off, emit boxes none of its fields. The round and
// log length are past 255, where boxing an integer allocates.
func TestEmitClosedDisabledAllocsNothing(t *testing.T) {
	e := &Engine{log: obs.Discard().With("node", types.ProcessID(0))}
	ev := []event{{kind: evClosed, round: 1 << 20, in: 3, logLen: 3 << 20}}
	if got := testing.AllocsPerRun(100, func() { e.emit(ev) }); got != 0 {
		t.Errorf("round-closure emit on a disabled log: %v allocs, want 0", got)
	}
}
