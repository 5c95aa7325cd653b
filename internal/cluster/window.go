package cluster

// dedupWindow is W, the width of every window's bit ring. A peer's sequence
// numbers beyond it drop unacknowledged (the peer retransmits until the
// window slides up); a Start beyond it slides its shard's id window up. It
// must be a power of two; 1<<16 costs 8 KiB per active peer and per shard
// and id namespace, far above the in-flight depth any benchmark reaches
// (BenchmarkDedupWindow in BENCH_net.json).
const dedupWindow = 1 << 16

// window is a set of positions: every position below the watermark next is
// a member, a ring of bits holds the members in [next, next+dedupWindow)
// (indexed by position modulo the window, allocated by the first set), and
// nothing above the ring is one. The watermark rests on a non-member. The
// dedup state counts a peer's sequence numbers in one, and each shard its
// retired ids, one per id namespace.
type window struct {
	next uint64
	bits []uint64
}

// has reports whether p is a member.
func (w *window) has(p uint64) bool {
	return p < w.next || !w.beyond(p) && w.bit(p)
}

// beyond reports whether p lies above the ring, out of set's reach.
func (w *window) beyond(p uint64) bool {
	return p >= w.next && p-w.next >= dedupWindow
}

func (w *window) bit(p uint64) bool {
	i := p % dedupWindow
	return w.bits != nil && w.bits[i/64]&(1<<(i%64)) != 0
}

func (w *window) clear(p uint64) {
	i := p % dedupWindow
	w.bits[i/64] &^= 1 << (i % 64)
}

// set adds p, which must not lie beyond the ring, and advances the watermark
// over the set prefix. A position below the watermark is already a member.
func (w *window) set(p uint64) {
	if p < w.next {
		return
	}
	if w.bits == nil {
		w.bits = make([]uint64, dedupWindow/64)
	}
	i := p % dedupWindow
	w.bits[i/64] |= 1 << (i % 64)
	w.advance()
}

// advance moves the watermark over the set prefix, clearing the bits it
// passes for the positions one ring above them.
func (w *window) advance() {
	for w.bit(w.next) {
		w.clear(w.next)
		w.next++
	}
}

// expire raises the watermark to at least to and calls drop with each
// non-member it passes inside the ring: at most dedupWindow of them however
// far to lies, since nothing above the ring was ever set.
func (w *window) expire(to uint64, drop func(p uint64)) {
	for p := w.next; p < to && p-w.next < dedupWindow; p++ {
		if w.bit(p) {
			w.clear(p)
		} else {
			drop(p)
		}
	}
	w.next = max(w.next, to)
	w.advance()
}

// appendWords appends the ring's bits from the watermark up to top, which
// must not lie beyond the ring, as words relative to the watermark: bit i of
// word j is position next+64j+i. At most dedupWindow/64 words go.
func (w *window) appendWords(dst []uint64, top uint64) []uint64 {
	for p := w.next; p <= top; p += 64 {
		i := p % dedupWindow
		word := w.bits[i/64] >> (i % 64)
		if i%64 != 0 {
			word |= w.bits[(i/64+1)%(dedupWindow/64)] << (64 - i%64)
		}
		dst = append(dst, word)
	}
	return dst
}
