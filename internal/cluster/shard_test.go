package cluster

import (
	"errors"
	"fmt"
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
// the completed instance (re-broadcasting its decide). The id windows must
// keep rotated ids retired, on every shard.
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
		if !retiredUnserved(n, id) {
			t.Fatalf("rotated id %d not retired", id)
		}
	}
	if retiredUnserved(n, 2*s+1) {
		t.Fatalf("id %d is still archived but reported rotated out", 2*s+1)
	}
	// Ids retired in order are consecutive on their shard (id/S): the
	// watermark passes all of them, but for shard 0's id 0, which nobody
	// started and which holds its watermark until a Start W above expires it.
	for _, sh := range n.shards {
		want := (total-uint64(sh.idx))/s + 1
		if sh.idx == 0 {
			want = 0
		}
		if next := sh.ids[0].next; next != want {
			t.Fatalf("shard %d watermark at %d, want %d", sh.idx, next, want)
		}
	}

	// The stale Start replay: before retired ids were kept, this resurrected the
	// instance (non-nil return) and re-ran the protocol.
	inst, _, err := n.registerInstance(1, 1, 0, theory.ProtoTrivial, 0, types.Value(1))
	if !errors.Is(err, ErrRetired) || inst != nil {
		t.Fatalf("stale re-Start of rotated id 1: inst=%v err=%v, want nil/ErrRetired", inst, err)
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

// retiredUnserved reports whether id is retired and its table rotated out of its
// shard's archive ring.
func retiredUnserved(n *Node, id uint64) bool {
	sh := n.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, archived := sh.archivedLocked(id)
	ids, pos := sh.idWindow(id)
	return !archived && ids.has(pos)
}

// isRetired reports whether id's shard counts it as retired.
func isRetired(n *Node, id uint64) bool {
	sh := n.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	ids, pos := sh.idWindow(id)
	return ids.has(pos)
}

// TestCompletedIDsMatchOracle checks the shard registry against a map
// oracle at S = 1, 2 and 3. Ids complete in shuffled windows of 64 — the
// whole window admitted, then each table completed in a seeded random
// order — until every shard's archive ring has rotated. After every
// eviction, for each id of the current window, the id whose table the
// eviction rotated out of the ring, an id above every admitted one and an
// earlier id drawn at random: the id window's membership matches the
// oracle, Table serves exactly the live ids and each shard's archCap latest
// evictions with their own rows, and a re-sent Start of any admitted id is
// refused as retired once it completed and re-acked while it runs. Once a
// window closes, each shard's watermark has passed every id in it.
func TestCompletedIDsMatchOracle(t *testing.T) {
	for _, shards := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			testCompletedIDsMatchOracle(t, shards)
		})
	}
}

func testCompletedIDsMatchOracle(t *testing.T, shards int) {
	const window = 64
	n := shardedNode(t, shards)
	archCap := n.shards[0].archCap
	windows := (shards*archCap)/window + 2 // past every ring's rotation
	r := prng.New(uint64(shards))

	live := make(map[uint64]*instance)
	completed := make(map[uint64]bool)
	evictedAt := make(map[uint64]int) // id -> its shard's eviction count before it
	order := make([][]uint64, shards) // each shard's evicted ids, oldest first
	evictions := make([]int, shards)
	check := func(id uint64) {
		t.Helper()
		sh := n.shardFor(id)
		if got := isRetired(n, id); got != completed[id] {
			t.Fatalf("retired(%d) = %v, oracle %v", id, got, completed[id])
		}
		at, evicted := evictedAt[id]
		want := live[id] != nil || (evicted && evictions[sh.idx]-at <= archCap)
		tbl, ok := n.Table(id)
		if ok != want {
			t.Fatalf("Table(%d) ok=%v, want %v (live %v, evicted %v)", id, ok, want, live[id] != nil, evicted)
		}
		if ok && (tbl.Instance != id || tbl.K != 1 || len(tbl.Rows) != 2 ||
			tbl.Rows[1] != (wire.TableRow{Decided: true, Value: types.Value(id)}) ||
			tbl.Rows[0].Decided != evicted) {
			t.Fatalf("Table(%d) = %+v", id, tbl)
		}
	}
	reStart := func(id uint64) {
		t.Helper()
		want := error(nil) // live: the idempotent re-ack
		if completed[id] {
			want = ErrRetired
		}
		if inst, _, err := n.registerInstance(id, 1, 0, theory.ProtoTrivial, 0, 0); inst != nil || !errors.Is(err, want) {
			t.Fatalf("re-sent Start of id %d: inst=%v err=%v, want nil/%v", id, inst, err, want)
		}
	}

	for w := 0; w < windows; w++ {
		lo := uint64(w * window)
		ids := make([]uint64, window)
		for i := range ids {
			id := lo + uint64(i)
			ids[i] = id
			in, err := newInstance(n, id, 1, 0, theory.ProtoTrivial, 0, 0)
			if err != nil {
				t.Fatal(err)
			}
			in.proto = idleProto{}
			if inst, _, err := n.admit(in); inst == nil || err != nil {
				t.Fatalf("admit %d: inst=%v err=%v", id, inst, err)
			}
			in.recordDecision(1, types.Value(id))
			live[id] = in
		}
		r.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		for _, id := range ids {
			// The local row completes the table, which evicts the instance.
			live[id].recordDecision(0, types.Value(id))
			delete(live, id)
			completed[id] = true
			idx := id % uint64(shards)
			evictedAt[id] = evictions[idx]
			evictions[idx]++
			order[idx] = append(order[idx], id)

			for c := lo; c < lo+window; c++ {
				check(c)
			}
			if e := evictions[idx]; e > archCap {
				check(order[idx][e-archCap-1]) // just rotated out
			}
			check(lo + window + uint64(r.Intn(windows*window)))
			earlier := uint64(r.Intn(int(lo) + window))
			check(earlier)
			reStart(id)
			reStart(earlier)
		}
		for _, sh := range n.shards {
			sh.mu.Lock()
			next := sh.ids[0].next
			sh.mu.Unlock()
			// The shard's ids below lo+window, counted from id 0.
			if want := (lo + window - uint64(sh.idx) + uint64(shards) - 1) / uint64(shards); next != want {
				t.Fatalf("window %d closed: shard %d watermark at %d, want %d", w, sh.idx, next, want)
			}
		}
	}
	for id := uint64(0); id <= uint64(windows*window)+window; id++ {
		check(id)
	}
	for i, e := range evictions {
		if e <= archCap {
			t.Fatalf("shard %d evicted %d ids, not past its ring of %d", i, e, archCap)
		}
	}
}

// idleProto is a test protocol that never sends or decides.
type idleProto struct{}

func (idleProto) Start(mpnet.API)                                   {}
func (idleProto) Deliver(mpnet.API, types.ProcessID, types.Payload) {}

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
			if a.api.Rand().Uint64() != b.api.Rand().Uint64() {
				same = false
				break
			}
		}
		if same {
			t.Fatalf("node 0 id %d and node 1 id %d share a stream (old XOR collision)", id^0xabcd, id)
		}
	}

	// The stream is built by the first Rand call, from the same mixed seed.
	in, err := newInstance(n0, 5, 1, 0, theory.ProtoTrivial, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if in.rng != nil {
		t.Fatal("random stream built before the first Rand call")
	}
	r, want := in.api.Rand(), prng.New(prng.MixSeed(seed, 0, 5))
	if in.api.Rand() != r {
		t.Fatal("a second Rand call built a second stream")
	}
	for i := 0; i < 8; i++ {
		if got, w := r.Uint64(), want.Uint64(); got != w {
			t.Fatalf("draw %d: %#x, want %#x from MixSeed(seed, node, id)", i, got, w)
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
	// Every id ended retired: a replayed Start is refused.
	for id := uint64(0); id < ids; id++ {
		if inst, _, err := n.registerInstance(id, 1, 0, theory.ProtoTrivial, 0, 1); !errors.Is(err, ErrRetired) || inst != nil {
			t.Fatalf("released id %d resurrected: inst=%v err=%v", id, inst, err)
		}
	}
}

// orderProto is a tallyProto that also counts, in early, every Deliver
// handed to it before its Start. started is touched only on the shard loop.
type orderProto struct {
	tallyProto
	started bool
	early   *atomic.Int64
}

func (p *orderProto) Start(mpnet.API) { p.started = true }

func (p *orderProto) Deliver(api mpnet.API, from types.ProcessID, m types.Payload) {
	if !p.started {
		p.early.Add(1)
	}
	p.tallyProto.Deliver(api, from, m)
}

// TestStartBeforeDeliver races admission against frame placement: one
// goroutine admits instances while another, as a connection reader would,
// places a frame for each id the moment the id is visible. A Start queued
// anywhere but in the critical section that publishes its instance lets such
// a frame reach the inbox first. No Deliver may come before its instance's
// Start, and every frame must reach its own instance exactly once.
func TestStartBeforeDeliver(t *testing.T) {
	const ids = 30000
	n := shardedNode(t, 1) // one shard lock: admission and placement contend on every id
	var early atomic.Int64
	var tl tally
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for id := uint64(1); id <= ids; id++ {
			in, err := newInstance(n, id, 1, 0, theory.ProtoTrivial, 0, 0)
			if err != nil {
				t.Error(err)
				return
			}
			in.proto = &orderProto{tallyProto: tallyProto{id: id, tally: &tl}, early: &early}
			if inst, _, err := n.admit(in); inst == nil || err != nil {
				t.Errorf("admit %d: inst=%v err=%v", id, inst, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		deadline := time.Now().Add(10 * time.Second)
		for id := uint64(1); id <= ids; id++ {
			for n.lookup(id) == nil {
				if time.Now().After(deadline) {
					t.Errorf("id %d never became visible", id)
					return
				}
			}
			bm := wire.BatchMsg{Kind: wire.TypeProto, Seq: id, Instance: id, From: 1,
				Payload: types.Payload{Kind: types.KindEcho, Value: types.Value(id)}}
			inst, accepted, fresh := n.placeFrame(1, id, bm)
			if inst == nil || !accepted || !fresh {
				t.Errorf("frame for visible id %d: inst=%v accepted=%v fresh=%v, want queued", id, inst, accepted, fresh)
				return
			}
			inst.shard.signal()
		}
	}()
	wg.Wait()
	if t.Failed() {
		return
	}
	waitFor(t, 10*time.Second, "every frame to be delivered", func() bool { return tl.count() == ids })
	if got := early.Load(); got != 0 {
		t.Fatalf("%d of %d deliveries came before their instance's Start", got, ids)
	}
	tl.mu.Lock()
	defer tl.mu.Unlock()
	for id := uint64(1); id <= ids; id++ {
		if got := tl.got[types.Value(id)]; len(got) != 1 || got[0] != id {
			t.Fatalf("frame for id %d reached instances %v, want exactly [%d]", id, got, id)
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
