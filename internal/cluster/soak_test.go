package cluster

import (
	"testing"
	"time"

	"kset/internal/theory"
	"kset/internal/types"
	"kset/internal/wire"
)

// TestClusterSoak is the race-enabled soak run the Makefile's race-live and
// cluster-smoke targets execute: a 5-node loopback TCP cluster with an
// adversarial transport (seeded drops, delays, duplicates), one crashed
// node, and one flapping link, serving concurrent FloodMin and Protocol A
// instances. Every surviving node's decision table must pass the full
// checker for the protocol's validity condition, and every instance must
// retire as stranded once the survivors' rows are in.
func TestClusterSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const (
		n         = 5
		k         = 2
		tt        = 1 // fault bound: the one crashed node
		crashed   = 4
		instances = 8
		seed      = 0xC0FFEE
	)
	lb, err := StartLoopback(LoopbackConfig{
		N: n, K: k, T: tt,
		Seed: seed,
		Faults: Faults{
			Drop:     0.15,
			Dup:      0.10,
			Delay:    0.20,
			MaxDelay: 5 * time.Millisecond,
		},
		Retransmit: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()

	// Node 4 crashes before any instance starts: the paper's crash failure,
	// here a closed TCP endpoint its peers keep trying to reach.
	lb.Crash(crashed)
	survivors := allAlive(n)
	survivors[crashed] = false

	// Flap the directed link 0 -> 1 while instances run: partition, heal,
	// repeat. The retransmit layer must carry every frame across the heals,
	// so liveness holds exactly under the paper's eventual-delivery
	// assumption.
	flapDone := make(chan struct{})
	go func() {
		defer close(flapDone)
		for i := 0; i < 10; i++ {
			lb.Nodes[0].SetPeerDown(1, true)
			time.Sleep(15 * time.Millisecond)
			lb.Nodes[0].SetPeerDown(1, false)
			time.Sleep(15 * time.Millisecond)
		}
	}()

	// Start the instances through the control path, as ksetctl would:
	// even ids run FloodMin (SC(k,t,RV1), t < k), odd ids run Protocol A
	// (SC(k,t,RV2), t < (k-1)n/k). Both bounds hold at n=5, k=2, t=1.
	protoFor := func(id uint64) (theory.ProtocolID, types.Validity) {
		if id%2 == 0 {
			return theory.ProtoFloodMin, types.RV1
		}
		return theory.ProtoA, types.RV2
	}
	inputsFor := func(id uint64) []types.Value {
		inputs := make([]types.Value, n)
		for i := range inputs {
			inputs[i] = types.Value(int(id)*100 + i + 1)
		}
		return inputs
	}

	clients := make([]*Client, n)
	for i := 0; i < n; i++ {
		if !survivors[i] {
			continue
		}
		c, err := DialNode(lb.Addrs[i], 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}
	for id := uint64(1); id <= instances; id++ {
		proto, _ := protoFor(id)
		inputs := inputsFor(id)
		for i := 0; i < n; i++ {
			if clients[i] == nil {
				continue
			}
			err := clients[i].Start(wire.Start{
				Instance: id, K: k, T: tt, Proto: uint8(proto), Input: inputs[i],
			})
			if err != nil {
				t.Fatalf("start instance %d on node %d: %v", id, i, err)
			}
		}
	}

	// Every surviving node must assemble the same checker-clean decision
	// table for every instance: all four survivors decided, at most k
	// distinct values, and the protocol's validity condition. The crashed
	// node's undecided row is the one allowed fault (t=1).
	deadline := time.Now().Add(60 * time.Second)
	for id := uint64(1); id <= instances; id++ {
		proto, validity := protoFor(id)
		tbl, err := CollectTables(id, survivors, func(i int) (wire.Table, error) {
			return clients[i].Table(id)
		}, deadline)
		if err != nil {
			t.Fatal(err)
		}
		if rec, err := VerifyTable(tbl, inputsFor(id), validity, seed); err != nil {
			t.Errorf("instance %d (%v): %v\nrecord: %v", id, proto, err, rec)
		}
	}
	<-flapDone

	// Every survivor decided every instance, and the transport counters must
	// show the adversary actually fired and the reliability layer actually
	// worked. Frames written per decision across the survivors go to the
	// BENCH_net.json ledger: each frame is one length-prefixed write on a
	// link, so the ratio is the soak's syscalls-per-decision.
	var framesSent, decisions int64
	for i := 0; i < n; i++ {
		if clients[i] == nil {
			continue
		}
		m, err := clients[i].Metrics()
		if err != nil {
			t.Fatal(err)
		}
		if h, _ := m.Hist("kset_decide_latency_seconds"); h.Count != instances {
			t.Errorf("node %d: kset_decide_latency_seconds count = %d, want %d", i, h.Count, instances)
		}
		if i == 0 {
			for _, name := range []string{`kset_faults_injected_total{kind="drop"}`, "kset_retransmits_total"} {
				if m.Value(name) <= 0 {
					t.Errorf("node 0: %s = %d, want > 0 (fault injection did not engage)", name, m.Value(name))
				}
			}
		}
		framesSent += m.Value("kset_frames_sent_total")
		decisions += int64(instances)
	}

	// Node 4's row never arrives, and every survivor's link to it failed a
	// dial: each instance retires as stranded once the survivors' rows are
	// in, leaving no live instance behind.
	for i := 0; i < n; i++ {
		if clients[i] == nil {
			continue
		}
		for {
			m, err := clients[i].Metrics()
			if err != nil {
				t.Fatal(err)
			}
			active, stranded := m.Value("kset_instances_active"), m.Value("kset_instances_stranded_total")
			if active == 0 && stranded == instances {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("node %d: kset_instances_active = %d, kset_instances_stranded_total = %d, want 0 and %d",
					i, active, stranded, instances)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	t.Logf("soak transport: %d frames sent for %d decisions (%.1f frames/decision)",
		framesSent, decisions, float64(framesSent)/float64(decisions))
}
