package cluster

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"kset/internal/mpnet"
	"kset/internal/theory"
	"kset/internal/types"
	"kset/internal/wire"
)

// TestPendingFrameBuffering drives placeFrame across many instances whose
// frames arrive before their StartInstance: every frame must buffer, the
// backlog handed to each instance must replay in sequence order, and the
// transport dedup state must survive the handoff — a retransmission of a
// buffered frame re-acks without a second delivery, before and after the
// instance starts.
func TestPendingFrameBuffering(t *testing.T) {
	n := unservedNode(t)
	const (
		first     = uint64(100)
		instances = 20
	)
	// Interleave the instances' frames round-robin so each instance's
	// backlog is built from non-adjacent transport sequence numbers: one
	// protocol frame and one decide announcement per instance, all from
	// peer 1, all before any Start.
	seq := uint64(0)
	frames := make(map[uint64][]wire.BatchMsg, instances)
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < instances; i++ {
			id := first + uint64(i)
			seq++
			bm := wire.BatchMsg{Kind: wire.TypeProto, Seq: seq, Instance: id, From: 1,
				Payload: types.Payload{Kind: types.KindEcho, Value: types.Value(seq)}}
			if pass == 1 {
				bm = wire.BatchMsg{Kind: wire.TypeDecide, Seq: seq, Instance: id, From: 1, Value: 55}
			}
			inst, accepted, fresh := n.placeFrame(1, seq, bm)
			if inst != nil || !accepted || !fresh {
				t.Fatalf("pre-start frame seq %d: inst=%v accepted=%v fresh=%v, want nil/true/true", seq, inst, accepted, fresh)
			}
			frames[id] = append(frames[id], bm)
		}
	}
	if pendingIDs := pendingInstanceCount(n); pendingIDs != instances {
		t.Fatalf("%d instances pending, want %d", pendingIDs, instances)
	}

	// A retransmission of a buffered frame is a duplicate: re-acked, not
	// re-buffered.
	dup := frames[first][0]
	if inst, accepted, fresh := n.placeFrame(1, dup.Seq, dup); inst != nil || !accepted || fresh {
		t.Fatalf("pre-start duplicate: inst=%v accepted=%v fresh=%v, want nil/true/false", inst, accepted, fresh)
	}
	if buffered := pendingFrameCount(n, first); buffered != 2 {
		t.Fatalf("instance %d has %d buffered frames after duplicate, want 2", first, buffered)
	}

	// Start every instance through the registration path the ctl Start
	// frame uses, capturing the backlog each one is handed.
	for i := 0; i < instances; i++ {
		id := first + uint64(i)
		inst, backlog, err := n.registerInstance(id, 1, 0, theory.ProtoTrivial, 0, types.Value(7))
		if err != nil || inst == nil {
			t.Fatalf("register instance %d: inst=%v err=%v", id, inst, err)
		}
		if len(backlog) != 2 {
			t.Fatalf("instance %d backlog has %d frames, want 2", id, len(backlog))
		}
		for j, bm := range backlog {
			if want := frames[id][j]; bm.Seq != want.Seq || bm.Kind != want.Kind {
				t.Fatalf("instance %d backlog[%d] = seq %d kind %v, want seq %d kind %v (seq-order replay)",
					id, j, bm.Seq, bm.Kind, want.Seq, want.Kind)
			}
			if j > 0 && bm.Seq <= backlog[j-1].Seq {
				t.Fatalf("instance %d backlog out of seq order: %d after %d", id, bm.Seq, backlog[j-1].Seq)
			}
		}
	}
	if leftover := pendingInstanceCount(n); leftover != 0 {
		t.Fatalf("%d pending buffers survived registration, want 0", leftover)
	}

	// The replayed decide plus the trivial protocol's own decision complete
	// each table (n=2), so every instance evicts itself; the archived table
	// must show the replayed row.
	deadline := time.Now().Add(10 * time.Second)
	for n.ActiveInstances() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d instances still live after replay", n.ActiveInstances())
		}
		time.Sleep(2 * time.Millisecond)
	}
	tbl, ok := n.Table(first)
	if !ok || len(tbl.Rows) != 2 || !tbl.Rows[1].Decided || tbl.Rows[1].Value != 55 {
		t.Fatalf("archived table for instance %d = %+v ok=%v, want replayed decide 55 in row 1", first, tbl, ok)
	}

	// Dedup survives the handoff and the eviction: the same old frames
	// still re-ack as duplicates, with no delivery target.
	for _, bm := range frames[first] {
		if inst, accepted, fresh := n.placeFrame(1, bm.Seq, bm); inst != nil || !accepted || fresh {
			t.Fatalf("post-handoff duplicate seq %d: inst=%v accepted=%v fresh=%v, want nil/true/false",
				bm.Seq, inst, accepted, fresh)
		}
	}
}

// TestShardPendingFramesBound pins the shard-wide pre-Start budget: frames
// for many never-started ids buffer until the shard holds maxPendingFrames
// of them, and there the kset_shard_pending_frames gauge plateaus and every
// further frame drops unacknowledged, whichever id it addresses. Once the
// ids start, each backlog replays and the retransmitted drops are accepted:
// every frame reaches its own instance's protocol exactly once.
func TestShardPendingFramesBound(t *testing.T) {
	const ids, extra = 1024, 512
	n := shardedNode(t, 1)
	gauge := n.reg.Gauge(`kset_shard_pending_frames{shard="0"}`)
	idOf := func(seq uint64) uint64 { return 1 + (seq-1)%ids }
	var dropped []wire.BatchMsg
	for seq := uint64(1); seq <= maxPendingFrames+extra; seq++ {
		bm := wire.BatchMsg{Kind: wire.TypeProto, Seq: seq, Instance: idOf(seq), From: 1,
			Payload: types.Payload{Kind: types.KindEcho, Value: types.Value(seq)}}
		inst, accepted, fresh := n.placeFrame(1, seq, bm)
		want := seq <= maxPendingFrames
		if inst != nil || accepted != want || fresh != want {
			t.Fatalf("pre-start frame seq %d: inst=%v accepted=%v fresh=%v, want nil/%v/%v", seq, inst, accepted, fresh, want, want)
		}
		if !want {
			dropped = append(dropped, bm)
		}
	}
	if got := gauge.Value(); got != maxPendingFrames {
		t.Fatalf("pending gauge %d at the plateau, want %d", got, maxPendingFrames)
	}
	if got := pendingInstanceCount(n); got != ids {
		t.Fatalf("%d ids buffered, want %d", got, ids)
	}

	var tl tally
	for id := uint64(1); id <= ids; id++ {
		in, err := newInstance(n, id, 1, 0, theory.ProtoTrivial, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		in.proto = &tallyProto{id: id, tally: &tl}
		inst, backlog, err := n.admit(in)
		if inst == nil || err != nil || len(backlog) != maxPendingFrames/ids {
			t.Fatalf("admit %d: inst=%v err=%v, backlog %d, want %d", id, inst, err, len(backlog), maxPendingFrames/ids)
		}
	}
	if got := gauge.Value(); got != 0 {
		t.Fatalf("pending gauge %d after every Start, want 0", got)
	}
	for _, bm := range dropped {
		if inst, accepted, fresh := n.placeFrame(1, bm.Seq, bm); inst == nil || !accepted || !fresh {
			t.Fatalf("retransmitted seq %d: inst=%v accepted=%v fresh=%v, want delivered", bm.Seq, inst, accepted, fresh)
		}
	}
	n.shards[0].signal()
	total := maxPendingFrames + extra
	waitFor(t, 10*time.Second, "every frame to be delivered", func() bool { return tl.count() == total })
	tl.mu.Lock()
	defer tl.mu.Unlock()
	for seq := uint64(1); seq <= uint64(total); seq++ {
		if got := tl.got[types.Value(seq)]; len(got) != 1 || got[0] != idOf(seq) {
			t.Fatalf("frame seq %d reached instances %v, want exactly [%d]", seq, got, idOf(seq))
		}
	}
}

// TestPendingFramesFreedByExpiry pins that a budget spent on ids that never
// start comes back: frames for 16 never-started ids fill the shard's
// pre-Start budget, so a pre-Start frame for a later id drops
// unacknowledged. A Start more than dedupWindow above them slides the id
// window past them: they expire, kset_ids_expired_total counts every id
// passed, and their frames leave the budget. From then on a later id's
// pre-Start frame buffers again and reaches its instance exactly once.
func TestPendingFramesFreedByExpiry(t *testing.T) {
	const never = 16
	n := shardedNode(t, 1)
	gauge := n.reg.Gauge(`kset_shard_pending_frames{shard="0"}`)
	expired := n.reg.Counter("kset_ids_expired_total")
	frame := func(seq, id uint64) wire.BatchMsg {
		return wire.BatchMsg{Kind: wire.TypeProto, Seq: seq, Instance: id, From: 1,
			Payload: types.Payload{Kind: types.KindEcho, Value: types.Value(seq)}}
	}
	seq := uint64(0)
	for ; seq < maxPendingFrames; seq++ {
		bm := frame(seq+1, 1+seq%never)
		if _, accepted, _ := n.placeFrame(1, bm.Seq, bm); !accepted {
			t.Fatalf("frame seq %d refused below the budget", bm.Seq)
		}
	}
	later, jump := uint64(never+1), uint64(never+dedupWindow)
	early := frame(seq+1, later)
	if inst, accepted, _ := n.placeFrame(1, early.Seq, early); inst != nil || accepted {
		t.Fatalf("pre-Start frame for id %d on a spent budget: inst=%v accepted=%v, want dropped unacked", later, inst, accepted)
	}

	// The Start of id jump slides the window to [later, jump]: ids 0..never
	// expire, the never-started ones with their frames.
	if inst, _, err := n.registerInstance(jump, 1, 0, theory.ProtoTrivial, 0, 0); inst == nil || err != nil {
		t.Fatalf("Start of id %d: inst=%v err=%v", jump, inst, err)
	}
	if got, ids := gauge.Value(), pendingInstanceCount(n); got != 0 || ids != 0 {
		t.Fatalf("pending gauge %d over %d ids after the never-started ids expired, want 0 and 0", got, ids)
	}
	if got := expired.Value(); got != never+1 {
		t.Fatalf("kset_ids_expired_total = %d, want the %d ids passed", got, never+1)
	}

	// The peer's retransmission of the dropped frame now buffers, and the
	// later instance starts with it.
	if inst, accepted, fresh := n.placeFrame(1, early.Seq, early); inst != nil || !accepted || !fresh || gauge.Value() != 1 {
		t.Fatalf("retransmitted pre-Start frame: inst=%v accepted=%v fresh=%v, pending %d, want buffered", inst, accepted, fresh, gauge.Value())
	}
	var tl tally
	in, err := newInstance(n, later, 1, 0, theory.ProtoTrivial, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	in.proto = &tallyProto{id: later, tally: &tl}
	if inst, backlog, err := n.admit(in); inst == nil || err != nil || len(backlog) != 1 || backlog[0].Seq != early.Seq {
		t.Fatalf("admit %d: inst=%v err=%v backlog %v, want started with seq %d", later, inst, err, backlog, early.Seq)
	}
	n.shards[0].signal()
	waitFor(t, 10*time.Second, "the frame to be delivered", func() bool { return tl.count() == 1 })
	tl.mu.Lock()
	defer tl.mu.Unlock()
	if got := tl.got[types.Value(early.Seq)]; len(got) != 1 || got[0] != later {
		t.Fatalf("frame seq %d reached instances %v, want exactly [%d]", early.Seq, got, later)
	}
}

// tally records which instances each payload value reached.
type tally struct {
	mu  sync.Mutex
	got map[types.Value][]uint64
}

func (tl *tally) count() int {
	tl.mu.Lock()
	defer tl.mu.Unlock()
	return len(tl.got)
}

// tallyProto is a test protocol that records every delivery in its tally.
type tallyProto struct {
	id    uint64
	tally *tally
}

func (p *tallyProto) Start(mpnet.API) {}

func (p *tallyProto) Deliver(_ mpnet.API, _ types.ProcessID, m types.Payload) {
	tl := p.tally
	tl.mu.Lock()
	defer tl.mu.Unlock()
	if tl.got == nil {
		tl.got = make(map[types.Value][]uint64)
	}
	tl.got[m.Value] = append(tl.got[m.Value], p.id)
}

// TestEvictionBoundsMemory is the bounded-memory regression test: thousands
// of instances run to completion on one node, and the live map must shrink
// back to zero — with the kset_instances_active gauge tracking it — while
// every shard's archive ring stays within its bound of ⌈maxArchived/S⌉ and
// still serves recent tables.
func TestEvictionBoundsMemory(t *testing.T) {
	for _, shards := range []int{1, 2, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			testEvictionBoundsMemory(t, shards)
		})
	}
}

func testEvictionBoundsMemory(t *testing.T, shards int) {
	lb, err := StartLoopback(LoopbackConfig{N: 1, K: 1, T: 0, Seed: 3, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	node := lb.Nodes[0]

	const total = maxArchived + 500 // overflow the archive bound too
	for id := uint64(1); id <= total; id++ {
		err := node.StartInstance(wire.Start{
			Instance: id, K: 1, T: 0, Proto: uint8(theory.ProtoTrivial), Input: types.Value(id),
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(30 * time.Second)
	for node.ActiveInstances() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d instances still live at deadline", node.ActiveInstances())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if v := node.Metrics().Gauge("kset_instances_active").Value(); v != 0 {
		t.Errorf("kset_instances_active = %d after all evictions, want 0", v)
	}

	// Each shard holds exactly its bound, or every id it owns if fewer.
	want := 0
	for _, sh := range node.shards {
		owned := total / shards
		if sh.idx != 0 && sh.idx <= total%shards {
			owned++
		}
		sh.mu.Lock()
		archivedN, bound := len(sh.ring), min(owned, sh.archCap)
		sh.mu.Unlock()
		if archivedN != bound {
			t.Errorf("shard %d archive ring holds %d tables, want %d (bound %d, %d ids owned)",
				sh.idx, archivedN, bound, sh.archCap, owned)
		}
		want += bound
	}

	// Exactly that many instances still serve tables (the FIFO bound dropped
	// the rest) and every served table carries that instance's own input.
	// Eviction order is completion order, not id order — the instances ran
	// concurrently — so which ids survive is not asserted.
	served := 0
	for id := uint64(1); id <= total; id++ {
		tbl, ok := node.Table(id)
		if !ok {
			continue
		}
		served++
		if len(tbl.Rows) != 1 || !tbl.Rows[0].Decided || tbl.Rows[0].Value != types.Value(id) {
			t.Fatalf("archived table for instance %d = %+v", id, tbl)
		}
	}
	if served != want {
		t.Errorf("%d instances still served, want exactly the archive bounds' %d", served, want)
	}
	if _, ok := node.Table(total + 1); ok {
		t.Error("never-started instance served a table")
	}
}

// pendingInstanceCount sums the distinct instance ids with buffered
// pre-start frames across every shard.
func pendingInstanceCount(n *Node) int {
	total := 0
	for _, sh := range n.shards {
		sh.mu.Lock()
		total += len(sh.pending)
		sh.mu.Unlock()
	}
	return total
}

// pendingFrameCount returns the frames buffered for one not-yet-started
// instance id.
func pendingFrameCount(n *Node, id uint64) int {
	sh := n.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return len(sh.pending[id])
}
