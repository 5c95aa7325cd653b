package cluster

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kset/internal/mpnet"
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
// the completed instance (re-broadcasting its decide). The tombstones must
// keep rotated ids on the idempotent re-ack path, on every shard.
func TestStaleStartAfterArchiveRotation(t *testing.T) {
	for _, shards := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			testStaleStartAfterArchiveRotation(t, shards)
		})
	}
}

func testStaleStartAfterArchiveRotation(t *testing.T, shards int) {
	n := shardedNode(t, shards)

	// Register and release archCap+2 ids per shard in order. Eviction is
	// synchronous in this goroutine, so each shard's FIFO rotation
	// deterministically drops its first two ids: 1..2S.
	s := uint64(shards)
	total := s * uint64(n.shards[0].archCap+2)
	for id := uint64(1); id <= total; id++ {
		inst, _, err := n.registerInstance(id, 1, 0, theory.ProtoTrivial, 0, types.Value(id))
		if err != nil || inst == nil {
			t.Fatalf("register instance %d: inst=%v err=%v", id, inst, err)
		}
		n.ReleaseInstance(id)
	}
	for id := uint64(1); id <= 2*s; id++ {
		if !tombstoned(n, id) {
			t.Fatalf("rotated id %d not tombstoned", id)
		}
	}
	if tombstoned(n, 2*s+1) {
		t.Fatalf("id %d is still archived but reported tombstoned", 2*s+1)
	}
	// Ids retired in order are consecutive on their shard (id/S): one run.
	for _, sh := range n.shards {
		if runs := len(sh.retired.runs); runs != 1 || sh.retired.folded {
			t.Fatalf("shard %d keeps %d tombstone runs (folded %v), want 1", sh.idx, runs, sh.retired.folded)
		}
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
		t.Fatalf("archived id %d no longer serves a table", total)
	}
	if inst, _, err := n.registerInstance(total+1, 1, 0, theory.ProtoTrivial, 0, types.Value(9)); err != nil || inst == nil {
		t.Fatalf("fresh id %d refused: inst=%v err=%v", total+1, inst, err)
	}
}

// tombstoned reports whether id rotated out of its shard's archive.
func tombstoned(n *Node, id uint64) bool {
	sh := n.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, archived := sh.archived[id]
	return !archived && sh.completedLocked(id)
}

// TestRetiredTombstoneFold exercises the bounded-memory fold: past
// maxRetired runs the tombstones collapse into a floor at the highest
// retired id, and everything at or below it stays retired — ids in the
// gaps included. Ids retired in increasing order never fold.
func TestRetiredTombstoneFold(t *testing.T) {
	var s idRuns
	// Even ids: each is a run of its own, so the (maxRetired+1)th folds.
	for i := uint64(1); i <= maxRetired+1; i++ {
		if s.folded {
			t.Fatalf("folded at %d runs, want past %d", i-1, maxRetired)
		}
		s.add(2 * i)
	}
	top := uint64(2 * (maxRetired + 1))
	if !s.folded || s.floor != top || len(s.runs) != 0 {
		t.Fatalf("after the fold: folded=%v floor=%d runs=%d, want true/%d/0", s.folded, s.floor, len(s.runs), top)
	}
	for _, id := range []uint64{0, 1, 3, maxRetired, top - 1, top} {
		if !s.has(id) {
			t.Fatalf("id %d not retired after fold", id)
		}
	}
	if s.has(top + 1) {
		t.Fatal("id above the floor reported retired")
	}
	// Adding at or below the floor is a no-op; above it grows the runs again.
	s.add(5)
	if len(s.runs) != 0 {
		t.Fatal("adding an id below the floor grew the runs")
	}
	s.add(top + 10)
	if !s.has(top+10) || s.has(top+9) || len(s.runs) != 1 {
		t.Fatalf("fresh tombstone after fold: has=%v runs=%d", s.has(top+10), len(s.runs))
	}

	var inc idRuns
	for id := uint64(0); id < 4*maxRetired; id++ {
		inc.add(id)
	}
	if inc.folded || len(inc.runs) != 1 || inc.runs[0] != (idRun{0, 4*maxRetired - 1}) {
		t.Fatalf("increasing ids: folded=%v runs=%v, want one run [0, %d]", inc.folded, inc.runs, 4*maxRetired-1)
	}
}

// TestIDRuns checks idRuns against a map oracle on seeded random adds over
// two windows — the bottom of the id space, 0 included, and the top,
// math.MaxUint64 included — so that adds land out of order, extend a run on
// either side, fill the gap between two runs and repeat members. After every
// add the runs must stay sorted, disjoint and non-adjacent and answer has
// exactly like the oracle. A second phase folds past maxRetired runs (added
// out of order within blocks) and checks has against the oracle's floor.
func TestIDRuns(t *testing.T) {
	const span = 96
	window := func(r *prng.Source) uint64 {
		v := uint64(r.Intn(span))
		if r.Intn(2) == 0 {
			return v
		}
		return math.MaxUint64 - v
	}
	for seed := uint64(1); seed <= 20; seed++ {
		r := prng.New(seed)
		var s idRuns
		oracle := make(map[uint64]bool)
		for step := 0; step < 300; step++ {
			id := window(r)
			s.add(id)
			oracle[id] = true
			checkRuns(t, &s)
			for v := uint64(0); v < span; v++ {
				for _, id := range []uint64{v, math.MaxUint64 - v} {
					if s.has(id) != oracle[id] {
						t.Fatalf("seed %d step %d: has(%d) = %v, oracle %v (runs %v)", seed, step, id, s.has(id), oracle[id], s.runs)
					}
				}
			}
		}
		if s.folded {
			t.Fatalf("seed %d: folded with %d runs", seed, len(s.runs))
		}
	}

	// The fold: ids 3i (never adjacent) in shuffled blocks of 64.
	r := prng.New(99)
	var s idRuns
	oracle := make(map[uint64]bool)
	var ids []uint64
	for i := uint64(1); i <= maxRetired+1; i++ {
		ids = append(ids, 3*i)
	}
	for b := 0; b < len(ids); b += 64 {
		block := ids[b:min(b+64, len(ids))]
		r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
	}
	floor := uint64(0)
	for i, id := range ids {
		s.add(id)
		oracle[id] = true
		if i < len(ids)-1 {
			floor = max(floor, id)
			if s.folded || len(s.runs) != i+1 {
				t.Fatalf("add %d: folded=%v runs=%d, want false/%d", i, s.folded, len(s.runs), i+1)
			}
		}
	}
	floor = max(floor, ids[len(ids)-1])
	if !s.folded || s.floor != floor {
		t.Fatalf("fold: folded=%v floor=%d, want true/%d", s.folded, s.floor, floor)
	}
	for step := 0; step < 2000; step++ {
		id := floor - 50 + uint64(r.Intn(200))
		if r.Intn(2) == 0 {
			s.add(id)
			oracle[id] = true
		}
		checkRuns(t, &s)
		if want := id <= floor || oracle[id]; s.has(id) != want {
			t.Fatalf("after fold: has(%d) = %v, want %v", id, s.has(id), want)
		}
	}
}

// checkRuns fails unless the runs are sorted, disjoint, non-adjacent and
// above the fold floor.
func checkRuns(t *testing.T, s *idRuns) {
	t.Helper()
	for i, r := range s.runs {
		if r.lo > r.hi {
			t.Fatalf("run %d = %v is empty", i, r)
		}
		if s.folded && r.lo <= s.floor {
			t.Fatalf("run %d = %v at or below the floor %d", i, r, s.floor)
		}
		if i > 0 && s.runs[i-1].hi+1 >= r.lo {
			t.Fatalf("runs %v and %v overlap or touch", s.runs[i-1], r)
		}
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

// releaseProto is a test protocol for release races. Deliver counts the
// messages it is handed and those handed to it after its instance was
// archived; the first one signals held, keeps the shard loop until the gate
// opens, and then decides.
type releaseProto struct {
	in         *instance
	held, gate chan struct{}
	done       <-chan struct{}
	delivered  atomic.Int64
	late       atomic.Int64
}

func (p *releaseProto) Start(mpnet.API) {}

func (p *releaseProto) Deliver(api mpnet.API, _ types.ProcessID, _ types.Payload) {
	if p.in.archived.Load() {
		p.late.Add(1)
	}
	if p.delivered.Add(1) > 1 {
		return
	}
	close(p.held)
	select {
	case <-p.gate:
	case <-p.done:
	}
	api.Decide(1)
}

// TestReleaseRacesDelivery runs ReleaseInstance against in-flight protocol
// deliveries and decide announcements. The instance's shard loop is held in
// its first Deliver while peer frames (protocol messages and the peer's
// decide) are placed, Table is polled and the instance is released, all
// concurrently; then the loop goes on and the held Deliver decides. From
// the first Table read after the release on, the table must never change —
// neither the peer's decide nor the local one lands in the archived rows —
// and no Deliver may run on the archived instance.
func TestReleaseRacesDelivery(t *testing.T) {
	n := shardedNode(t, 1)
	sh := n.shards[0]
	seq := uint64(0)
	place := func(bm wire.BatchMsg) *instance {
		seq++
		bm.Seq, bm.From = seq, 1
		inst, _, _ := n.placeFrame(1, seq, bm)
		sh.signal()
		return inst
	}
	proto := func(id uint64) wire.BatchMsg {
		return wire.BatchMsg{Kind: wire.TypeProto, Instance: id, Payload: types.Payload{Kind: types.KindInput}}
	}
	for round := uint64(0); round < 20; round++ {
		id, sentinel := 2*round+1, 2*round+2
		in, err := newInstance(n, id, 1, 0, theory.ProtoTrivial, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		p := &releaseProto{in: in, held: make(chan struct{}), gate: make(chan struct{}), done: n.done}
		in.proto = p
		if inst, _, err := n.admit(in); inst == nil || err != nil {
			t.Fatalf("admit %d: inst=%v err=%v", id, inst, err)
		}
		place(proto(id))
		<-p.held

		var wg sync.WaitGroup
		start, released := make(chan struct{}), make(chan struct{})
		var first wire.Table
		wg.Add(4)
		go func() { // peer 1's frames, placed as its connection reader would
			defer wg.Done()
			<-start
			for i := 0; i < 100; i++ {
				bm := proto(id)
				if i == 50 {
					bm = wire.BatchMsg{Kind: wire.TypeDecide, Instance: id, Value: 5}
				}
				if inst := place(bm); inst != nil && bm.Kind == wire.TypeDecide {
					inst.recordDecision(1, 5)
				}
			}
		}()
		go func() {
			defer wg.Done()
			<-start
			n.ReleaseInstance(id)
			var ok bool
			if first, ok = n.Table(id); !ok {
				t.Errorf("round %d: released id %d serves no table", round, id)
			}
			close(released)
		}()
		for r := 0; r < 2; r++ {
			go func() {
				defer wg.Done()
				<-start
				<-released
				for i := 0; i < 100; i++ {
					if tbl, ok := n.Table(id); !ok || !reflect.DeepEqual(tbl, first) {
						t.Errorf("round %d: table changed after release: %+v (ok %v), first read %+v", round, tbl, ok, first)
						return
					}
				}
			}()
		}
		close(start)
		wg.Wait()

		// Let the held Deliver decide, then wait until the loop has worked
		// through everything placed before a sentinel instance's message.
		close(p.gate)
		sp := &releaseProto{held: make(chan struct{}), gate: make(chan struct{}), done: n.done}
		close(sp.gate)
		sin, err := newInstance(n, sentinel, 1, 0, theory.ProtoTrivial, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		sp.in, sin.proto = sin, sp
		if inst, _, err := n.admit(sin); inst == nil || err != nil {
			t.Fatalf("admit sentinel %d: inst=%v err=%v", sentinel, inst, err)
		}
		place(proto(sentinel))
		select {
		case <-sp.held:
		case <-time.After(10 * time.Second):
			t.Fatal("the sentinel message was not delivered")
		}

		if got, late := p.delivered.Load(), p.late.Load(); got != 1 || late != 0 {
			t.Fatalf("round %d: %d deliveries, %d of them after archiving; want 1 and 0", round, got, late)
		}
		if tbl, _ := n.Table(id); !reflect.DeepEqual(tbl, first) || tbl.Rows[0].Decided {
			t.Fatalf("round %d: final table %+v, first read after release %+v, want equal and no local row", round, tbl, first)
		}
	}
}
