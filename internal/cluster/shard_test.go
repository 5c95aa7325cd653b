package cluster

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kset/internal/prng"
	"kset/internal/theory"
	"kset/internal/types"
	"kset/internal/wire"
)

// shardedNode builds an unserved node with an explicit shard count, for
// driving the engine's registration and eviction paths directly.
func shardedNode(t testing.TB, shards int) *Node {
	t.Helper()
	n, err := NewNode(Config{
		ID: 0, N: 2, K: 1, T: 0,
		Peers:  []string{"127.0.0.1:1", "127.0.0.1:1"},
		Shards: shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

// TestStaleStartAfterArchiveRotation is the resurrection regression test:
// once an id rotates out of the bounded archive, a delayed re-sent Start
// used to pass the instances/archive check in registerInstance and re-run
// the completed instance (re-broadcasting its decide). The tombstone set
// must keep rotated ids on the idempotent re-ack path.
func TestStaleStartAfterArchiveRotation(t *testing.T) {
	n := unservedNode(t)

	// Register and release maxArchived+2 ids in order. Eviction is
	// synchronous in this goroutine, so the archive's FIFO rotation
	// deterministically drops ids 1 and 2.
	const total = maxArchived + 2
	for id := uint64(1); id <= total; id++ {
		inst, _, err := n.registerInstance(id, 1, 0, theory.ProtoTrivial, 0, types.Value(id))
		if err != nil || inst == nil {
			t.Fatalf("register instance %d: inst=%v err=%v", id, inst, err)
		}
		n.ReleaseInstance(id)
	}
	n.regMu.Lock()
	retired1, retired2, retired3 := n.retiredLocked(1), n.retiredLocked(2), n.retiredLocked(3)
	n.regMu.Unlock()
	if !retired1 || !retired2 {
		t.Fatalf("rotated ids 1,2 not tombstoned: retired(1)=%v retired(2)=%v", retired1, retired2)
	}
	if retired3 {
		t.Fatal("id 3 is still archived but reported retired")
	}

	// The stale Start replay: before the tombstones, this resurrected the
	// instance (non-nil return) and re-ran the protocol.
	inst, _, err := n.registerInstance(1, 1, 0, theory.ProtoTrivial, 0, types.Value(1))
	if err != nil || inst != nil {
		t.Fatalf("stale re-Start of rotated id 1: inst=%v err=%v, want nil/nil (idempotent re-ack)", inst, err)
	}
	if n.ActiveInstances() != 0 {
		t.Fatalf("%d live instances after stale re-Start, want 0", n.ActiveInstances())
	}
	if _, ok := n.Table(1); ok {
		t.Fatal("rotated id 1 serves a table after stale re-Start")
	}

	// Still-archived and genuinely new ids are unaffected.
	if _, ok := n.Table(total); !ok {
		t.Fatalf("archived id %d no longer serves a table", uint64(total))
	}
	if inst, _, err := n.registerInstance(total+1, 1, 0, theory.ProtoTrivial, 0, types.Value(9)); err != nil || inst == nil {
		t.Fatalf("fresh id %d refused: inst=%v err=%v", uint64(total+1), inst, err)
	}
}

// TestRetiredTombstoneFold exercises the bounded-memory fold: past
// maxRetired exact tombstones the set collapses into a floor at the highest
// retired id, and everything at or below it stays retired.
func TestRetiredTombstoneFold(t *testing.T) {
	n := unservedNode(t)
	n.regMu.Lock()
	defer n.regMu.Unlock()
	for id := uint64(1); id <= maxRetired+1; id++ {
		n.markRetiredLocked(id)
	}
	if n.retiredFloor != maxRetired+1 {
		t.Fatalf("retiredFloor = %d after fold, want %d", n.retiredFloor, uint64(maxRetired+1))
	}
	if len(n.retired) != 0 {
		t.Fatalf("%d exact tombstones survive the fold, want 0", len(n.retired))
	}
	for _, id := range []uint64{1, maxRetired / 2, maxRetired + 1} {
		if !n.retiredLocked(id) {
			t.Fatalf("id %d not retired after fold", id)
		}
	}
	if n.retiredLocked(maxRetired + 2) {
		t.Fatal("id above the floor reported retired")
	}
	// Marking below the floor is a no-op; marking above grows the set again.
	n.markRetiredLocked(5)
	if len(n.retired) != 0 {
		t.Fatal("marking an id below the floor grew the exact set")
	}
	n.markRetiredLocked(maxRetired + 10)
	if !n.retiredLocked(maxRetired+10) || len(n.retired) != 1 {
		t.Fatalf("fresh tombstone after fold: retired=%v setLen=%d", n.retiredLocked(maxRetired+10), len(n.retired))
	}
}

// TestInstanceSeedMixing is the PRNG-collision regression test. The old
// derivation (Seed ^ id ^ 0xabcd*nodeID) let distinct (node, instance)
// pairs cancel onto identical streams — e.g. (node 0, id X^0xabcd) and
// (node 1, id X) for every X. The splitmix64 mixer must separate those
// pairs, and stay collision-free over a dense (node × instance) block.
func TestInstanceSeedMixing(t *testing.T) {
	const seed = 42
	n0 := unservedNode(t)
	n0.cfg.Seed = seed
	n1, err := NewNode(Config{
		ID: 1, N: 2, K: 1, T: 0, Seed: seed,
		Peers: []string{"127.0.0.1:1", "127.0.0.1:1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n1.Close)

	// Old-scheme colliding pairs: identical streams before the fix.
	for _, id := range []uint64{0, 7, 1 << 20} {
		a, err := newInstance(n0, id^0xabcd, 1, 0, theory.ProtoTrivial, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := newInstance(n1, id, 1, 0, theory.ProtoTrivial, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		same := true
		for i := 0; i < 8; i++ {
			if a.rng.Uint64() != b.rng.Uint64() {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("node 0 id %d and node 1 id %d share a stream (old XOR collision)", id^0xabcd, id)
		}
	}

	// Dense block: every (node, instance) pair in 8×4096 must get a unique
	// seed from the shared mixer newInstance uses.
	seen := make(map[uint64][2]uint64, 8*4096)
	for node := uint64(0); node < 8; node++ {
		for id := uint64(0); id < 4096; id++ {
			s := prng.MixSeed(seed, node, id)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision: (node %d, id %d) and (node %d, id %d) -> %#x",
					node, id, prev[0], prev[1], s)
			}
			seen[s] = [2]uint64{node, id}
		}
	}
}

// TestCrossShardLifecycleRaces hammers registration, release, and frame
// placement for ids that collide on id % S from concurrent goroutines. The
// engine must neither race (run under -race in CI) nor deadlock, and every
// instance must end released exactly once.
func TestCrossShardLifecycleRaces(t *testing.T) {
	n := shardedNode(t, 2)
	const ids = 128
	var seq atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for id := uint64(0); id < ids; id++ {
				switch w % 3 {
				case 0:
					_ = n.StartInstance(wire.Start{Instance: id, K: 1, Input: types.Value(id)})
				case 1:
					n.ReleaseInstance(id)
				case 2:
					s := seq.Add(1)
					n.placeFrame(1, s, wire.BatchMsg{
						Kind: wire.TypeProto, Seq: s, Instance: id, From: 1,
						Payload: types.Payload{Kind: types.KindEcho, Value: types.Value(id)},
					})
				}
			}
		}(w)
	}
	wg.Wait()

	// Quiesce: release everything that survived the race.
	for id := uint64(0); id < ids; id++ {
		n.ReleaseInstance(id)
	}
	deadline := time.Now().Add(10 * time.Second)
	for n.ActiveInstances() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d instances still live after release sweep", n.ActiveInstances())
		}
		time.Sleep(time.Millisecond)
	}
	if v := n.Metrics().Gauge("kset_instances_active").Value(); v != 0 {
		t.Fatalf("kset_instances_active = %d, want 0", v)
	}
	// Every id ended archived (or tombstoned): a replayed Start re-acks.
	for id := uint64(0); id < ids; id++ {
		if inst, _, err := n.registerInstance(id, 1, 0, theory.ProtoTrivial, 0, 1); err != nil || inst != nil {
			t.Fatalf("released id %d resurrected: inst=%v err=%v", id, inst, err)
		}
	}
}

// TestGoroutinesBoundedByShards pins the tentpole's resource claim: a
// thousand live instances must not add goroutines — the engine's budget is
// the fixed shard pool, not O(instances).
func TestGoroutinesBoundedByShards(t *testing.T) {
	n := shardedNode(t, 4)
	before := runtime.NumGoroutine()
	const live = 1000
	for id := uint64(1); id <= live; id++ {
		// Default proto (FloodMin) stalls waiting for the unreachable peer,
		// so every instance stays live.
		if err := n.StartInstance(wire.Start{Instance: id, Input: types.Value(id)}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for n.ActiveInstances() < live {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d instances live", n.ActiveInstances(), live)
		}
		time.Sleep(time.Millisecond)
	}
	after := runtime.NumGoroutine()
	if grew := after - before; grew > 50 {
		t.Fatalf("goroutines grew by %d across %d live instances (before=%d after=%d); want O(shards)",
			grew, live, before, after)
	}
}
