package cluster

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kset/internal/mpnet"
	"kset/internal/obs"
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

// tombstoned reports whether id completed and its table rotated out of its
// shard's archive ring.
func tombstoned(n *Node, id uint64) bool {
	sh := n.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	_, archived := sh.archivedLocked(id)
	return !archived && sh.completedLocked(id)
}

// TestRetiredTombstoneFold exercises the bounded-memory fold: past
// maxRetired runs the tombstones collapse into a floor, everything at or
// below it stays retired — ids in the gaps included — and the runs above it
// stay exact. Ids retired in increasing order never fill the runs. On a node
// the floor is the highest id whose table rotated out of the archive ring,
// so ids between it and the newest eviction still start with their
// backlogs; the fold is visible: kset_tombstone_folds_total counts it and
// one warn line names the shard and the floor.
func TestRetiredTombstoneFold(t *testing.T) {
	var s idRuns
	// Even ids: each is a run of its own, so the (maxRetired+1)th fills the set.
	for i := uint64(1); i <= maxRetired+1; i++ {
		if full := s.add(2 * i); full != (i == maxRetired+1) {
			t.Fatalf("add %d reported full=%v", 2*i, full)
		}
	}
	top, floor := uint64(2*(maxRetired+1)), uint64(maxRetired)
	s.fold(floor)
	if above := maxRetired + 1 - maxRetired/2; !s.folded || s.floor != floor || len(s.runs) != above {
		t.Fatalf("after the fold: folded=%v floor=%d runs=%d, want true/%d/%d", s.folded, s.floor, len(s.runs), floor, above)
	}
	checkRuns(t, &s)
	for id, want := range map[uint64]bool{0: true, 1: true, 3: true, floor - 1: true, floor: true,
		floor + 1: false, floor + 2: true, top - 1: false, top: true, top + 1: false} {
		if s.has(id) != want {
			t.Fatalf("after the fold: has(%d) = %v, want %v", id, !want, want)
		}
	}
	// Adding at or below the floor is a no-op; above it grows the runs again.
	runs := len(s.runs)
	s.add(5)
	s.add(top + 10)
	if !s.has(top+10) || s.has(top+9) || len(s.runs) != runs+1 {
		t.Fatalf("fresh tombstone after fold: has=%v runs=%d, want %d", s.has(top+10), len(s.runs), runs+1)
	}
	// A floor one below a run absorbs it; a lower floor never lowers it.
	s.fold(floor + 1)
	if s.floor != floor+2 || len(s.runs) != runs || s.has(floor+3) {
		t.Fatalf("fold onto a run: floor=%d runs=%d, want %d/%d", s.floor, len(s.runs), floor+2, runs)
	}
	s.fold(1)
	if s.floor != floor+2 {
		t.Fatalf("a lower fold moved the floor to %d", s.floor)
	}

	var inc idRuns
	for id := uint64(0); id < 4*maxRetired; id++ {
		if inc.add(id) {
			t.Fatalf("increasing ids filled the runs at %d", id)
		}
	}
	if len(inc.runs) != 1 || inc.runs[0] != (idRun{0, 4*maxRetired - 1}) {
		t.Fatalf("increasing ids: runs=%v, want one run [0, %d]", inc.runs, 4*maxRetired-1)
	}

	var logs syncBuffer
	n, err := NewNode(Config{
		ID: 0, N: 2, K: 1, T: 0, Shards: 1,
		Peers: []string{"127.0.0.1:1", "127.0.0.1:1"},
		Log:   obs.NewLogger(&logs, obs.LevelWarn),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	sh := n.shards[0]
	pending := n.reg.Gauge(`kset_shard_pending_frames{shard="0"}`)
	frame := func(seq, id uint64) (*instance, bool) {
		inst, accepted, _ := n.placeFrame(1, seq, wire.BatchMsg{Kind: wire.TypeProto, Seq: seq, Instance: id, From: 1})
		return inst, accepted
	}
	// Evicting the even ids 2..top in order rotates ring slots from the
	// (archCap+1)th eviction on; at the fold the latest overwritten table is
	// id top - 2*archCap. Ids 3 (below it) and top-1 (above it, below the
	// newest eviction) never start before the fold; their frames buffer.
	floor = top - 2*uint64(sh.archCap)
	mid := top - 1
	if _, accepted := frame(1, 3); !accepted {
		t.Fatal("frame for unstarted id 3 refused")
	}
	if _, accepted := frame(2, mid); !accepted || pending.Value() != 2 {
		t.Fatalf("frame for unstarted id %d: accepted=%v, pending gauge %d, want true/2", mid, accepted, pending.Value())
	}
	for i := uint64(1); i <= maxRetired+1; i++ {
		inst, _, err := n.registerInstance(2*i, 1, 0, theory.ProtoTrivial, 0, 0)
		if err != nil || inst == nil {
			t.Fatalf("register %d: inst=%v err=%v", 2*i, inst, err)
		}
		n.evictInstance(inst)
	}
	if folds := n.reg.Counter("kset_tombstone_folds_total").Value(); folds != 1 {
		t.Fatalf("kset_tombstone_folds_total = %d, want 1", folds)
	}
	line := fmt.Sprintf(`level=warn event="tombstones folded" node=p1 shard=0 floor=%d`, floor)
	if got := logs.String(); strings.Count(got, "tombstones folded") != 1 || !strings.Contains(got, line) {
		t.Fatalf("log %q, want one line containing %q", got, line)
	}
	sh.mu.Lock()
	folded, runs := sh.retired.folded, len(sh.retired.runs)
	sh.mu.Unlock()
	if !folded || runs != sh.archCap {
		t.Fatalf("after the fold: folded=%v, %d runs, want true and the ring's %d", folded, runs, sh.archCap)
	}
	for _, id := range []uint64{1, 3, floor - 1, floor} {
		if !completed(n, id) {
			t.Fatalf("id %d at or below the floor %d not retired", id, floor)
		}
	}
	for _, id := range []uint64{floor + 1, mid, top + 1} {
		if completed(n, id) {
			t.Fatalf("id %d above the floor %d retired by the fold", id, floor)
		}
	}

	// Below the floor: frames and a Start re-ack, and id 3's buffered frame
	// stays — nothing but its Start frees the pending budget.
	if inst, accepted := frame(3, 3); inst != nil || !accepted || pending.Value() != 2 {
		t.Fatalf("frame for folded id 3: inst=%v accepted=%v pending %d, want acked and dropped", inst, accepted, pending.Value())
	}
	if inst, _, err := n.registerInstance(3, 1, 0, theory.ProtoTrivial, 0, 0); inst != nil || err != nil {
		t.Fatalf("Start of folded id 3: inst=%v err=%v, want the idempotent re-ack", inst, err)
	}
	// Above it, a late vote keeps buffering and then starts with its backlog.
	if _, accepted := frame(4, mid); !accepted || pending.Value() != 3 {
		t.Fatalf("frame for id %d after the fold: accepted=%v, pending gauge %d, want true/3", mid, accepted, pending.Value())
	}
	inst, backlog, err := n.registerInstance(mid, 1, 0, theory.ProtoTrivial, 0, 0)
	if inst == nil || err != nil || len(backlog) != 2 || backlog[0].Seq != 2 || backlog[1].Seq != 4 {
		t.Fatalf("Start of id %d after the fold: inst=%v err=%v backlog %v, want it started with seqs 2 and 4", mid, inst, err, backlog)
	}
	if pending.Value() != 1 {
		t.Fatalf("pending gauge %d after id %d started, want id 3's 1", pending.Value(), mid)
	}
}

// completed reports whether id's shard counts it as completed.
func completed(n *Node, id uint64) bool {
	sh := n.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.completedLocked(id)
}

// syncBuffer is a strings.Builder safe for a logger's writes and a test's
// reads from different goroutines.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestIDRuns checks idRuns against a map oracle on seeded random adds over
// two windows — the bottom of the id space, 0 included, and the top,
// math.MaxUint64 included — so that adds land out of order, extend a run on
// either side, fill the gap between two runs and repeat members. After every
// add the runs must stay sorted, disjoint and non-adjacent and answer has
// exactly like the oracle. A second phase fills maxRetired+1 runs (added out
// of order within blocks), folds at a floor among them and checks has
// against the oracle and the floor, on both sides of it.
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

	// The fold: ids 3i (never adjacent) in shuffled blocks of 64 until the
	// runs are full, then a floor in the middle of them.
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
	for i, id := range ids {
		full := s.add(id)
		oracle[id] = true
		if want := i == len(ids)-1; full != want || len(s.runs) != i+1 {
			t.Fatalf("add %d: full=%v runs=%d, want %v/%d", i, full, len(s.runs), want, i+1)
		}
	}
	floor := uint64(3*(maxRetired/2) + 1)
	s.fold(floor)
	if !s.folded || s.floor != floor {
		t.Fatalf("fold: folded=%v floor=%d, want true/%d", s.folded, s.floor, floor)
	}
	top := uint64(3 * (maxRetired + 1))
	for step := 0; step < 4000; step++ {
		id := floor - 50 + uint64(r.Intn(200))
		if step%2 == 1 {
			id = top - 150 + uint64(r.Intn(200))
		}
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

// TestCompletedIDsMatchOracle checks the shard registry against a map
// oracle at S = 1, 2 and 3. Ids complete in shuffled windows of 64 — the
// whole window admitted, then each table completed in a seeded random
// order — until every shard's archive ring has rotated. After every
// eviction, for each id of the current window, the id whose table the
// eviction rotated out of the ring, an id above every admitted one and an
// earlier id drawn at random: completedLocked matches the oracle, Table serves exactly the live ids and
// each shard's archCap latest evictions with their own rows, and a re-sent
// Start of any admitted id is the idempotent re-ack. Once a window closes,
// each shard's tombstones are one run again.
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
		sh.mu.Lock()
		got := sh.completedLocked(id)
		sh.mu.Unlock()
		if got != completed[id] {
			t.Fatalf("completedLocked(%d) = %v, oracle %v", id, got, completed[id])
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
		if inst, _, err := n.registerInstance(id, 1, 0, theory.ProtoTrivial, 0, 0); inst != nil || err != nil {
			t.Fatalf("re-sent Start of id %d: inst=%v err=%v, want the idempotent re-ack", id, inst, err)
		}
	}

	for w := 0; w < windows; w++ {
		lo := uint64(w*window + 1)
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
			earlier := 1 + uint64(r.Intn(int(lo)+window-1))
			check(earlier)
			reStart(id)
			reStart(earlier)
		}
		for _, sh := range n.shards {
			sh.mu.Lock()
			runs, folded := len(sh.retired.runs), sh.retired.folded
			sh.mu.Unlock()
			if runs != 1 || folded {
				t.Fatalf("window %d closed: shard %d keeps %d tombstone runs (folded %v), want 1", w, sh.idx, runs, folded)
			}
		}
	}
	for id := uint64(1); id <= uint64(windows*window)+window; id++ {
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
