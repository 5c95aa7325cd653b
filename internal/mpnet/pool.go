package mpnet

import (
	"math/bits"

	"kset/internal/prng"
	"kset/internal/types"
)

// Pool is the set of in-flight messages as a scheduler sees it: the
// envelopes in pick order plus an index over them, so that a delivery policy
// pays for the pick it makes and not for the size of the pool.
//
// The pick order is the runtime's own: a send appends, a pick moves the last
// envelope into the vacated position. Next returns a position in that order,
// so a policy that draws a position (FairRandom) or the k-th envelope that
// passes a filter (PickAmong) is a function of the order alone.
//
// The index answers, in O(1) and without allocating, which envelope is the
// oldest, the newest, and the oldest on each ordered channel; Channels and ChannelHead cost O(n*n/64).
// PickAmong keeps, for the one filter a run's policy applies, a mark per
// envelope, so a filtered draw costs O(in flight/64) and the filter runs once
// per message rather than once per message per pick. Index and marks are
// built the first time they are asked for and maintained from then on, so a
// run under a policy that never asks (FairRandom) does not pay for them.
type Pool struct {
	env []Envelope
	n   int
	seq int // next send sequence number

	// The index. Sequence numbers are dense (0..seq-1), so everything is
	// keyed by them: slots[s] places message s in env and on two doubly
	// linked lists, all live messages in send order and the live messages of
	// its channel in send order.
	indexed        bool
	slots          []slot
	oldest, newest int32 // ends of the send-order list, -1 when empty
	// head and tail are the ends of each channel's list, indexed from*n+to,
	// -1 when empty; nonEmpty has bit from*n+to set when the channel has
	// traffic, which puts the channels in (from, to) order, and channels
	// counts its set bits.
	head, tail []int32
	nonEmpty   []uint64
	channels   int

	// The filter marks. Bit i of marks is set when env[i] passed the filter;
	// positions marked and up have not been asked yet (their bits are zero),
	// and accepted counts the set bits.
	filtering bool
	marks     []uint64
	marked    int
	accepted  int
}

type slot struct {
	idx            int32 // position in env, -1 once delivered or discarded
	prev, next     int32 // neighbours in send order, -1 at the ends
	chPrev, chNext int32 // neighbours on the channel, -1 at the ends
}

// reset readies an empty pool for n processes, on the arrays the last run
// left when they are large enough: each is truncated here and written before
// it is read (index sizes the channel ends, reindex fills them, PickAmong
// appends its mark words), so nothing of the old run shows. Every round of a
// full-information protocol keeps up to n*(n-1) point-to-point messages in
// flight; starting with that capacity means steady state never regrows the
// slice.
func (p *Pool) reset(n int) {
	env := p.env[:0]
	if cap(env) < n*n {
		env = make([]Envelope, 0, n*n)
	}
	*p = Pool{
		env: env, n: n,
		slots: p.slots[:0],
		head:  p.head[:0], tail: p.tail[:0], nonEmpty: p.nonEmpty[:0],
		marks: p.marks[:0],
	}
}

// Len returns the number of in-flight messages.
func (p *Pool) Len() int { return len(p.env) }

// Envelopes returns the in-flight messages in pick order. The slice is owned
// by the runtime: it must not be mutated, and it is valid only until Next
// returns.
func (p *Pool) Envelopes() []Envelope { return p.env }

// Oldest returns the position of the in-flight message sent first.
func (p *Pool) Oldest() int {
	p.index()
	return int(p.slots[p.oldest].idx)
}

// Newest returns the position of the in-flight message sent last.
func (p *Pool) Newest() int {
	p.index()
	return int(p.slots[p.newest].idx)
}

// Channels returns the number of ordered channels (sender, recipient) with
// at least one message in flight.
func (p *Pool) Channels() int {
	p.index()
	return p.channels
}

// ChannelHead returns the position of the oldest message on the k-th
// channel with traffic, counting channels in (sender, recipient) order from
// 0. k must be below Channels.
func (p *Pool) ChannelHead(k int) int {
	p.index()
	return int(p.slots[p.head[nthSetBit(p.nonEmpty, k)]].idx)
}

// PickAmong makes the draw every filtering policy makes: one rng.Intn over
// the envelopes ok accepts, returning the position of the one drawn (the
// k-th accepted in pick order for draw k). When ok accepts none it draws
// over the whole pool instead — the asynchronous model permits only finite
// delay, and a wedged run would hide violations rather than exhibit them.
//
// ok must be a function of the envelope and of nothing that moves during the
// call. The pool remembers its answers: an envelope is asked about once, when
// PickAmong first sees it, unless changed is true, which says ok may answer
// differently than at the previous call (a gate opened) and has every
// envelope asked again. A run has one filter; a policy that cannot tell
// whether its filter moved passes true and pays O(in flight) per pick.
func (p *Pool) PickAmong(rng *prng.Source, changed bool, ok func(*Envelope) bool) int {
	if changed || !p.filtering {
		p.filtering, p.marked, p.accepted = true, 0, 0
		for w := range p.marks {
			p.marks[w] = 0
		}
	}
	for len(p.marks)<<6 < len(p.env) {
		p.marks = append(p.marks, 0)
	}
	for i := p.marked; i < len(p.env); i++ {
		if ok(&p.env[i]) {
			setBit(p.marks, i)
			p.accepted++
		}
	}
	p.marked = len(p.env)
	if p.accepted == 0 {
		return rng.Intn(len(p.env))
	}
	return nthSetBit(p.marks, rng.Intn(p.accepted))
}

func hasBit(words []uint64, i int) bool { return words[i>>6]&(1<<(i&63)) != 0 }
func setBit(words []uint64, i int)      { words[i>>6] |= 1 << (i & 63) }
func clearBit(words []uint64, i int)    { words[i>>6] &^= 1 << (i & 63) }

// nthSetBit returns the position of the k-th set bit of words, counting from
// 0. There must be more than k set bits.
func nthSetBit(words []uint64, k int) int {
	for w, word := range words {
		if c := bits.OnesCount64(word); k >= c {
			k -= c
			continue
		}
		for ; k > 0; k-- {
			word &= word - 1
		}
		return w<<6 + bits.TrailingZeros64(word)
	}
	panic("mpnet: fewer set bits than asked for")
}

// add puts env in flight under the next sequence number. It and remove are
// the runtime's per-event path: add is small enough to inline, and both keep
// the upkeep of index and marks out of line behind one branch. A new envelope
// needs no mark: PickAmong asks about it when it next runs.
func (p *Pool) add(env Envelope) {
	env.Seq = p.seq
	p.seq++
	p.env = append(p.env, env)
	if p.indexed {
		p.added()
	}
}

// remove takes the envelope at position idx out of flight, moving the last
// envelope into its place.
func (p *Pool) remove(idx int) {
	if p.indexed || p.filtering {
		p.removing(idx)
	}
	env := p.env
	env[idx] = env[len(env)-1]
	p.env = env[:len(env)-1]
}

// added indexes the envelope add just appended.
func (p *Pool) added() {
	last := len(p.env) - 1
	env := &p.env[last]
	p.slots = append(p.slots, slot{idx: int32(last)})
	p.link(int32(env.Seq), p.channel(env.From, env.To))
}

// removing does the upkeep for remove(idx), before the last envelope takes
// the place of the one at idx: the index forgets the one and re-places the
// other, and the other's mark moves with it.
func (p *Pool) removing(idx int) {
	last := len(p.env) - 1
	if p.indexed {
		env := &p.env[idx]
		p.unlink(int32(env.Seq), p.channel(env.From, env.To))
		if idx != last {
			p.slots[p.env[last].Seq].idx = int32(idx)
		}
	}
	if p.filtering {
		if p.marked != len(p.env) {
			// Envelopes arrived since the filter last ran, so the one moving
			// has no mark yet: start over at the next PickAmong.
			p.filtering = false
			return
		}
		if hasBit(p.marks, idx) {
			clearBit(p.marks, idx)
			p.accepted--
		}
		if idx != last && hasBit(p.marks, last) {
			clearBit(p.marks, last)
			setBit(p.marks, idx)
		}
		p.marked = last
	}
}

// discardTo drops every in-flight message addressed to a crashed process,
// keeping the rest in order.
func (p *Pool) discardTo(crashed []bool) {
	kept := p.env[:0]
	for _, env := range p.env {
		if !crashed[env.To] {
			kept = append(kept, env)
		}
	}
	p.env = kept
	p.filtering = false
	if p.indexed {
		p.reindex()
	}
}

func (p *Pool) channel(from, to types.ProcessID) int { return int(from)*p.n + int(to) }

func (p *Pool) index() {
	if !p.indexed {
		p.indexed = true
		nn := p.n * p.n
		if cap(p.head) < nn {
			ends := make([]int32, 2*nn)
			p.head, p.tail = ends[:nn:nn], ends[nn:]
			p.nonEmpty = make([]uint64, (nn+63)/64)
		}
		p.head, p.tail, p.nonEmpty = p.head[:nn], p.tail[:nn], p.nonEmpty[:(nn+63)/64]
		if cap(p.slots) < p.seq+nn {
			p.slots = make([]slot, 0, p.seq+nn)
		}
		p.reindex()
	}
}

// reindex rebuilds the index from env: O(messages sent so far). It runs when
// the index is first asked for and after a crash discarded messages, at most
// t+1 times in a run.
func (p *Pool) reindex() {
	p.slots = p.slots[:0]
	for len(p.slots) < p.seq {
		p.slots = append(p.slots, slot{idx: -1})
	}
	for i := range p.env {
		p.slots[p.env[i].Seq].idx = int32(i)
	}
	for ch := range p.head {
		p.head[ch], p.tail[ch] = -1, -1
	}
	for w := range p.nonEmpty {
		p.nonEmpty[w] = 0
	}
	p.oldest, p.newest, p.channels = -1, -1, 0
	for seq := range p.slots {
		if idx := p.slots[seq].idx; idx >= 0 {
			env := &p.env[idx]
			p.link(int32(seq), p.channel(env.From, env.To))
		}
	}
}

// link appends message seq, newer than every linked one, to the send-order
// list and to channel ch.
func (p *Pool) link(seq int32, ch int) {
	s := &p.slots[seq]
	s.prev, s.next = p.newest, -1
	if p.newest >= 0 {
		p.slots[p.newest].next = seq
	} else {
		p.oldest = seq
	}
	p.newest = seq
	s.chPrev, s.chNext = p.tail[ch], -1
	if t := p.tail[ch]; t >= 0 {
		p.slots[t].chNext = seq
	} else {
		p.head[ch] = seq
		setBit(p.nonEmpty, ch)
		p.channels++
	}
	p.tail[ch] = seq
}

// unlink takes message seq off both lists and marks it gone.
func (p *Pool) unlink(seq int32, ch int) {
	s := &p.slots[seq]
	if s.prev >= 0 {
		p.slots[s.prev].next = s.next
	} else {
		p.oldest = s.next
	}
	if s.next >= 0 {
		p.slots[s.next].prev = s.prev
	} else {
		p.newest = s.prev
	}
	if s.chPrev >= 0 {
		p.slots[s.chPrev].chNext = s.chNext
	} else {
		p.head[ch] = s.chNext
	}
	if s.chNext >= 0 {
		p.slots[s.chNext].chPrev = s.chPrev
	} else {
		p.tail[ch] = s.chPrev
	}
	if p.head[ch] < 0 {
		clearBit(p.nonEmpty, ch)
		p.channels--
	}
	s.idx = -1
}
