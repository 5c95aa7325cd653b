package cluster

import (
	"errors"
	"math"
	"slices"
	"testing"

	"kset/internal/theory"
	"kset/internal/wire"
)

// TestWindowExpiry drives one shard's id windows through the four things
// expiry must and must not do. An unstarted ACS vote below later votes that
// completed early is not retired: it still starts with its backlog. A Start
// more than dedupWindow above the watermark expires the ids it passes: a
// live stranded instance goes into the archive ring and Table serves its
// partial rows, a never-started id's frames leave the budget, and
// kset_ids_expired_total counts each. A Start below the watermark is
// refused as retired, acked by StartInstance and counted in
// kset_starts_retired_total. A jump of many windows expires at most
// dedupWindow ids, and drops the frames buffered for ids above the ring
// that it passes; frames beyond the ring are buffered like any others.
func TestWindowExpiry(t *testing.T) {
	n := shardedNode(t, 1)
	pending := n.reg.Gauge(`kset_shard_pending_frames{shard="0"}`)
	active := n.reg.Gauge("kset_instances_active")
	expired := n.reg.Counter("kset_ids_expired_total")
	retired := n.reg.Counter("kset_starts_retired_total")
	seq := uint64(0)
	frame := func(id uint64) (*instance, bool) {
		seq++
		inst, accepted, _ := n.placeFrame(1, seq, wire.BatchMsg{Kind: wire.TypeProto, Seq: seq, Instance: id, From: 1})
		return inst, accepted
	}
	start := func(id uint64) (*instance, []wire.BatchMsg, error) {
		return n.registerInstance(id, 1, 0, theory.ProtoTrivial, 0, 0)
	}

	// An ACS round's vote whose frame arrived before its Start, while the
	// round's other votes and a much later one complete around it.
	vote := uint64(1)<<63 | 9
	if _, accepted := frame(vote); !accepted || pending.Value() != 1 {
		t.Fatalf("frame for unstarted vote: accepted=%v, pending %d, want buffered", accepted, pending.Value())
	}
	for _, id := range []uint64{vote - 1, vote + 1, vote + 2, vote + dedupWindow/2} {
		inst, _, err := start(id)
		if inst == nil || err != nil {
			t.Fatalf("start %#x: inst=%v err=%v", id, inst, err)
		}
		n.evictInstance(inst)
	}
	if isRetired(n, vote) {
		t.Fatal("the unstarted vote below the newest eviction is retired")
	}
	if inst, backlog, err := start(vote); inst == nil || err != nil || len(backlog) != 1 || pending.Value() != 0 {
		t.Fatalf("Start of the vote: inst=%v err=%v backlog %d, pending %d, want started with its frame", inst, err, len(backlog), pending.Value())
	}

	// A live instance holding only the peer's row, and a never-started id
	// with a buffered frame; then a Start a whole window above them.
	const stranded, never = 5, 6
	in, err := newInstance(n, stranded, 1, 0, theory.ProtoTrivial, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	in.proto = idleProto{}
	if inst, _, err := n.admit(in); inst == nil || err != nil {
		t.Fatalf("admit %d: inst=%v err=%v", stranded, inst, err)
	}
	in.recordDecision(1, 55)
	if _, accepted := frame(never); !accepted || pending.Value() != 1 {
		t.Fatalf("frame for never-started id %d: accepted=%v, pending %d", never, accepted, pending.Value())
	}
	liveBefore := active.Value()
	far := uint64(never + dedupWindow)
	if inst, _, err := start(far); inst == nil || err != nil {
		t.Fatalf("start %d: inst=%v err=%v", far, inst, err)
	}
	if got := expired.Value(); got != never+1 {
		t.Fatalf("kset_ids_expired_total = %d, want ids 0..%d", got, never)
	}
	if n.lookup(stranded) != nil || !in.archived.Load() || active.Value() != liveBefore {
		t.Fatalf("stranded id %d: live %v archived %v, active %d, want evicted (active %d)",
			stranded, n.lookup(stranded) != nil, in.archived.Load(), active.Value(), liveBefore)
	}
	tbl, ok := n.Table(stranded)
	if want := []wire.TableRow{{}, {Decided: true, Value: 55}}; !ok || !slices.Equal(tbl.Rows, want) {
		t.Fatalf("Table(%d) = %+v ok=%v, want the partial rows %v", stranded, tbl, ok, want)
	}
	if pending.Value() != 0 || pendingInstanceCount(n) != 0 {
		t.Fatalf("pending gauge %d after id %d expired, want 0", pending.Value(), never)
	}
	if _, accepted := frame(never); !accepted || pending.Value() != 0 {
		t.Fatalf("frame for expired id %d: accepted=%v, pending %d, want acked and dropped", never, accepted, pending.Value())
	}

	// Starts below the watermark: refused as retired, acked, counted.
	for i, id := range []uint64{never, stranded} {
		if inst, _, err := start(id); inst != nil || !errors.Is(err, ErrRetired) {
			t.Fatalf("Start of expired id %d: inst=%v err=%v, want ErrRetired", id, inst, err)
		}
		if err := n.StartInstance(wire.Start{Instance: id, Input: 1}); err != nil {
			t.Fatalf("StartInstance(%d) = %v, want the ack", id, err)
		}
		if got := retired.Value(); got != int64(i+1) {
			t.Fatalf("kset_starts_retired_total = %d, want %d", got, i+1)
		}
	}
	if _, ok := n.Table(never); ok || n.lookup(never) != nil {
		t.Fatalf("expired id %d runs or serves a table after its Start", never)
	}

	// A jump of ten windows: only the ring's dedupWindow ids expire (id far
	// among them, stranded), a frame buffered above the ring is dropped,
	// and the window ends right below the new id.
	jump := far + 10*dedupWindow
	if _, accepted := frame(far + 2*dedupWindow); !accepted || pending.Value() != 1 {
		t.Fatalf("frame above the ring: accepted=%v, pending %d, want buffered", accepted, pending.Value())
	}
	before := expired.Value()
	if inst, _, err := start(jump); inst == nil || err != nil {
		t.Fatalf("start %d: inst=%v err=%v", jump, inst, err)
	}
	if got := expired.Value() - before; got != dedupWindow || pending.Value() != 0 {
		t.Fatalf("a jump of ten windows expired %d ids, pending %d, want the ring's %d and 0", got, pending.Value(), dedupWindow)
	}
	if n.lookup(far) != nil || !isRetired(n, jump-dedupWindow) || isRetired(n, jump-dedupWindow+1) {
		t.Fatalf("after the jump: id %d live %v, watermark not at %d", far, n.lookup(far) != nil, jump-dedupWindow+1)
	}
	if _, accepted := frame(jump + dedupWindow); !accepted || pending.Value() != 1 {
		t.Fatalf("frame above the ring: accepted=%v, pending %d, want buffered", accepted, pending.Value())
	}
}

// windowOracle is the window's specification: a watermark and a map of the
// members above it.
type windowOracle struct {
	next uint64
	set  map[uint64]bool
}

func (o *windowOracle) has(p uint64) bool    { return p < o.next || o.set[p] }
func (o *windowOracle) beyond(p uint64) bool { return p >= o.next+dedupWindow }

func (o *windowOracle) add(p uint64) {
	if p >= o.next {
		o.set[p] = true
	}
	o.advance()
}

func (o *windowOracle) advance() {
	for o.set[o.next] {
		delete(o.set, o.next)
		o.next++
	}
}

func (o *windowOracle) expire(to uint64) (dropped []uint64) {
	for p := o.next; p < to && p < o.next+dedupWindow; p++ {
		if !o.set[p] {
			dropped = append(dropped, p)
		}
	}
	for p := range o.set {
		if p < to {
			delete(o.set, p)
		}
	}
	o.next = max(o.next, to)
	o.advance()
	return dropped
}

// FuzzWindowMatchesOracle drives a window with the operations its two users
// issue and checks every answer against windowOracle: the dedup path's
// accept (has, beyond, then set), the shard registry's admit (has, then an
// expiring slide for a position beyond the ring, which must report at most
// dedupWindow ids) and its eviction (set, below the watermark too, as for a
// stranded instance evicted after its expiry). Each op is four bytes: the
// kind, a 16-bit offset from the watermark (below it when kind&4), and a
// scale of up to eight windows. base picks the starting watermark: 1 for
// the dedup path, 0 or 2⁶³/S for an id namespace.
func FuzzWindowMatchesOracle(f *testing.F) {
	f.Add(uint64(1), []byte{0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 2, 0, 0, 0})
	f.Add(uint64(0), []byte{2, 0, 3, 0, 1, 0xff, 0xff, 0, 1, 0xff, 0xff, 3, 2, 0, 1, 0, 6, 0, 2, 0})
	f.Add(uint64(1<<63/3), []byte{2, 0, 1, 0, 2, 0, 2, 0, 1, 0x80, 0, 1, 0, 0, 0, 0, 5, 0, 1, 0, 1, 0xff, 0xff, 7})
	f.Fuzz(func(t *testing.T, base uint64, ops []byte) {
		base %= 1 << 63
		w := window{next: base}
		o := windowOracle{next: base, set: make(map[uint64]bool)}
		for ; len(ops) >= 4; ops = ops[4:] {
			kind, off := ops[0], uint64(ops[1])<<8|uint64(ops[2])
			p := o.next + off*(1+uint64(ops[3]%8))
			if kind&4 != 0 && off <= o.next {
				p = o.next - off
			}
			if w.has(p) != o.has(p) || w.beyond(p) != o.beyond(p) {
				t.Fatalf("position %d: has=%v beyond=%v, oracle %v/%v (watermark %d)", p, w.has(p), w.beyond(p), o.has(p), o.beyond(p), o.next)
			}
			switch kind % 3 {
			case 0: // dedup accept
				if !o.has(p) && !o.beyond(p) {
					w.set(p)
					o.add(p)
				}
			case 1: // registry admit
				if !o.has(p) && o.beyond(p) {
					var dropped []uint64
					w.expire(p-dedupWindow+1, func(q uint64) { dropped = append(dropped, q) })
					want := o.expire(p - dedupWindow + 1)
					if !slices.Equal(dropped, want) || len(dropped) > dedupWindow {
						t.Fatalf("expire to %d dropped %d ids, oracle %d", p-dedupWindow+1, len(dropped), len(want))
					}
				}
			case 2: // registry eviction
				if !o.beyond(p) {
					w.set(p)
					o.add(p)
				}
			}
			if w.next != o.next {
				t.Fatalf("watermark %d, oracle %d", w.next, o.next)
			}
			if w.has(math.MaxUint64) || !w.beyond(math.MaxUint64) {
				t.Fatal("a hostile position at the top of the space counts as inside the window")
			}
		}
		for p := o.next - min(o.next, 2); p < o.next+dedupWindow+2; p++ {
			if w.has(p) != o.has(p) || w.beyond(p) != o.beyond(p) {
				t.Fatalf("final position %d: has=%v beyond=%v, oracle %v/%v", p, w.has(p), w.beyond(p), o.has(p), o.beyond(p))
			}
		}
	})
}
