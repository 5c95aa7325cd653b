package cluster

import (
	"testing"
	"time"

	"kset/internal/theory"
	"kset/internal/types"
	"kset/internal/wire"
)

// strandedCount reads a node's kset_instances_stranded_total.
func strandedCount(n *Node) int64 {
	return n.reg.Counter("kset_instances_stranded_total").Value()
}

// awaitRetired waits until none of a node's instances is live and its
// kset_instances_active gauge agrees.
func awaitRetired(t *testing.T, n *Node, within time.Duration) {
	t.Helper()
	waitFor(t, within, "every instance retired", func() bool {
		return n.ActiveInstances() == 0 && n.reg.Gauge("kset_instances_active").Value() == 0
	})
}

// TestStrandedCrashedPeerRetires is the rule's positive case: node 3 of four
// crashes before anything starts, so no table ever fills. Each survivor
// still retires every instance once its own row and the other survivors'
// rows are in, counts each in kset_instances_stranded_total and serves the
// retired table from its archive ring: rows 0–2 decided, row 3 not, and the
// checker accepts it with node 3 as the one fault.
func TestStrandedCrashedPeerRetires(t *testing.T) {
	const (
		n, k, tt  = 4, 2, 1
		crashed   = 3
		instances = 2000
		seed      = 0x57
	)
	lb, err := StartLoopback(LoopbackConfig{N: n, K: k, T: tt, Seed: seed, Retransmit: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	lb.Crash(crashed)
	inputsFor := func(id uint64) []types.Value {
		inputs := make([]types.Value, n)
		for i := range inputs {
			inputs[i] = types.Value(int(id)*10 + i)
		}
		return inputs
	}
	for id := uint64(1); id <= instances; id++ {
		startEverywhere(t, lb, id, k, tt, theory.ProtoFloodMin, inputsFor(id))
	}
	for i, node := range lb.Nodes[:crashed] {
		awaitRetired(t, node, 30*time.Second)
		if got := strandedCount(node); got != instances {
			t.Errorf("node %d: kset_instances_stranded_total = %d, want %d", i, got, instances)
		}
		if h := node.stats.tableLatency.Snapshot("x"); h.Count != 0 {
			t.Errorf("node %d: kset_table_latency_seconds observed %d tables, want 0 (none filled)", i, h.Count)
		}
		for id := uint64(1); id <= instances; id++ {
			tbl, ok := node.Table(id)
			if !ok {
				t.Fatalf("node %d: retired instance %d serves no table", i, id)
			}
			for row, r := range tbl.Rows {
				if r.Decided != (row != crashed) {
					t.Fatalf("node %d: instance %d row %d decided=%v, want rows 0–2 decided and row 3 not: %+v",
						i, id, row, r.Decided, tbl.Rows)
				}
			}
			if _, err := VerifyTable(tbl, inputsFor(id), types.RV1, seed); err != nil {
				t.Fatalf("node %d: instance %d: %v", i, id, err)
			}
		}
	}
}

// TestStrandedRule drives the rule row by row on one unserved node (n = 4,
// t = 1) whose links to peers 2 and 3 have failed a dial and whose link to
// peer 1 never dialed. A ctl instance retires as stranded exactly when its
// own row and n − t rows are decided and every undecided row's peer is
// unreachable; one missing its own row, one missing more than t rows, one
// missing a reachable peer's row and an ACS vote all stay live.
func TestStrandedRule(t *testing.T) {
	n, err := NewNode(Config{
		ID: 0, N: 4, K: 2, T: 1,
		Peers: []string{"127.0.0.1:1", "127.0.0.1:1", "127.0.0.1:1", "127.0.0.1:1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	for _, p := range []int{2, 3} {
		l := n.links[p]
		l.enqueue(wire.BatchMsg{Kind: wire.TypeDecide, Instance: 1 << 40, From: 0})
		l.flush(false) // the dial is refused
		if !l.unreachable.Load() {
			t.Fatalf("link to peer %d reachable after a refused dial", p)
		}
	}
	admit := func(id uint64) *instance {
		t.Helper()
		in, err := newInstance(n, id, 2, 1, theory.ProtoTrivial, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		in.proto = idleProto{}
		if inst, _, err := n.admit(in); inst == nil || err != nil {
			t.Fatalf("admit %#x: inst=%v err=%v", id, inst, err)
		}
		return in
	}
	rows := func(in *instance, nodes ...int) {
		for _, i := range nodes {
			in.recordDecision(types.ProcessID(i), types.Value(10+i))
		}
	}
	live := func(what string, in *instance, want bool) {
		t.Helper()
		if got := n.lookup(in.id) != nil; got != want || in.archived.Load() == want {
			t.Fatalf("%s: live=%v archived=%v, want live=%v", what, got, in.archived.Load(), want)
		}
	}

	stranded := admit(1)
	rows(stranded, 0, 1, 2)
	live("own row and rows 1–2, peer 3 unreachable", stranded, false)
	if got := strandedCount(n); got != 1 {
		t.Fatalf("kset_instances_stranded_total = %d, want 1", got)
	}
	tbl, ok := n.Table(1)
	if !ok || !tbl.Rows[2].Decided || tbl.Rows[3].Decided {
		t.Fatalf("Table(1) = %+v ok=%v, want the archived rows with row 3 undecided", tbl, ok)
	}

	reachable := admit(2)
	rows(reachable, 0, 2, 3)
	live("row 1 missing, peer 1 never unreachable", reachable, true)

	noOwn := admit(3)
	rows(noOwn, 1, 2, 3)
	live("own row missing", noOwn, true)
	rows(noOwn, 0)
	live("own row in: the table is full", noOwn, false)

	tooFew := admit(4)
	rows(tooFew, 0, 1)
	live("rows 2 and 3 missing, more than t", tooFew, true)
	rows(tooFew, 2)
	live("row 2 in: one missing, unreachable", tooFew, false)

	vote := admit(1<<63 | 5)
	rows(vote, 0, 1, 2)
	live("ACS vote with peer 3 unreachable", vote, true)
	n.ReleaseInstance(vote.id)
	live("ACS vote released", vote, false)

	if got := strandedCount(n); got != 2 {
		t.Fatalf("kset_instances_stranded_total = %d, want 2 (ids 1 and 4)", got)
	}
	if h := n.stats.tableLatency.Snapshot("x"); h.Count != 1 {
		t.Fatalf("kset_table_latency_seconds count = %d, want 1 (id 3's full table)", h.Count)
	}
}

// TestStrandedPartitionedPeerStaysLive partitions node 3 from node 0 in both
// directions while instances run: node 0 holds its own row and the other
// two, but its link to node 3 is down, not unreachable, so nothing retires
// as stranded. After the heal every table completes and evicts normally.
func TestStrandedPartitionedPeerStaysLive(t *testing.T) {
	const (
		n, k, tt  = 4, 2, 1
		instances = 50
	)
	lb, err := StartLoopback(LoopbackConfig{N: n, K: k, T: tt, Seed: 9, Retransmit: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	lb.Nodes[0].SetPeerDown(3, true)
	lb.Nodes[3].SetPeerDown(0, true)
	inputs := []types.Value{1, 2, 3, 4}
	for id := uint64(1); id <= instances; id++ {
		startEverywhere(t, lb, id, k, tt, theory.ProtoFloodMin, inputs)
	}
	node := lb.Nodes[0]
	deadline := time.Now().Add(30 * time.Second)
	for id := uint64(1); id <= instances; id++ {
		collect(t, lb, id, []bool{true, true, true, false}, deadline)
	}
	time.Sleep(50 * time.Millisecond) // ten retransmit intervals with the partition up
	if live, got := node.ActiveInstances(), strandedCount(node); live != instances || got != 0 {
		t.Fatalf("node 0 while partitioned: %d live, %d stranded, want %d and 0", live, got, instances)
	}
	lb.Nodes[0].SetPeerDown(3, false)
	lb.Nodes[3].SetPeerDown(0, false)
	for i, nd := range lb.Nodes {
		awaitRetired(t, nd, 30*time.Second)
		if got := strandedCount(nd); got != 0 {
			t.Errorf("node %d: kset_instances_stranded_total = %d after the heal, want 0", i, got)
		}
		if h := nd.stats.tableLatency.Snapshot("x"); h.Count != instances {
			t.Errorf("node %d: %d full tables, want %d", i, h.Count, instances)
		}
	}
}

// TestStrandedAfterRowsIn covers instances whose rows were all in before
// their missing peer turned unreachable, so no later row runs the rule for
// them: n = 3, t = 1, FloodMin k = 2 started on nodes 0 and 1 only. Node 2
// never decides, but while it is up the instances stay live. Once it
// crashes, one more instance makes each survivor's link find it gone, and
// the dial that fails retires every earlier instance.
func TestStrandedAfterRowsIn(t *testing.T) {
	const (
		n, k, tt  = 3, 2, 1
		instances = 20
	)
	lb, err := StartLoopback(LoopbackConfig{N: n, K: k, T: tt, Seed: 11, Retransmit: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	survivors := lb.Nodes[:2]
	start := func(id uint64) {
		for i, node := range survivors {
			err := node.StartInstance(wire.Start{
				Instance: id, K: k, T: tt, Proto: uint8(theory.ProtoFloodMin), Input: types.Value(i + 1),
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	for id := uint64(1); id <= instances; id++ {
		start(id)
	}
	deadline := time.Now().Add(30 * time.Second)
	for id := uint64(1); id <= instances; id++ {
		collect(t, lb, id, []bool{true, true, false}, deadline)
	}
	time.Sleep(50 * time.Millisecond) // node 2 is up: its links stay reachable
	for i, node := range survivors {
		if live := node.ActiveInstances(); live != instances {
			t.Fatalf("node %d with node 2 up: %d live instances, want %d", i, live, instances)
		}
	}

	lb.Crash(2)
	start(instances + 1)
	for i, node := range survivors {
		waitFor(t, 30*time.Second, "the earlier instances retired", func() bool {
			for id := uint64(1); id <= instances; id++ {
				if node.lookup(id) != nil {
					return false
				}
			}
			return true
		})
		if got := strandedCount(node); got < instances {
			t.Errorf("node %d: kset_instances_stranded_total = %d, want at least %d", i, got, instances)
		}
	}
}
