// Package mp implements the paper's message-passing protocols as
// event-driven mpnet.Protocol state machines:
//
//   - FloodMin — Chaudhuri's protocol for SC(k, t, RV1), t < k (Lemma 3.1).
//   - Protocol A — SC(k, t, RV2) in MP/CR for t < (k-1)n/k (Lemma 3.7), and
//     SC(k, t, WV2) in MP/Byz per Lemmas 3.12/3.13.
//   - Protocol B — SC(k, t, SV2) in MP/CR for t < (k-1)n/(2k) (Lemma 3.8).
//   - the l-echo broadcast — a generalization of Bracha and Toueg's echo
//     broadcast (Lemma 3.14), used as a component.
//   - Protocol C(l) — SC(k, t, SV2) in MP/Byz for t < (k-1)n/(2k+l-1) and
//     t < ln/(2l+1) (Lemma 3.15).
//   - Protocol D — SC(k, t, WV1) in MP/Byz for k >= Z(n, t) (Lemma 3.16).
//   - Trivial — every process decides its own input (the k = n case).
//
// Every protocol keeps participating (relaying, echoing) after deciding, as
// the paper requires for its Byzantine protocols ("termination is satisfied
// only in the sense that correct processes decide, but not ... stop").
//
// Restart contract: Start begins a fresh run. An instance that ran before —
// to its end, or cut off by a crash, a halt or the event budget — and is
// started again, with the same or another n, t and k, forgets that run and
// behaves as a new instance would; it keeps only the memory of its state
// (the first-per-sender record, the id sets, the echo tally and its
// EchoBroadcast), which it clears rather than allocates. So a run arena may
// hand the same instances to one run after another (internal/harness does,
// for a cell's witness). Deliver before the first Start is not allowed.
package mp

import (
	"kset/internal/types"
)

// idSet is a set of process ids. Every id a correct runtime produces lies
// in 0..n-1, and those are bits of a bitset. An id outside that range is not
// trusted to be small: Payload.Origin is payload, and on the live cluster it
// comes off the wire bounded by wire.MaxProcs, not by n. Such an id goes on a
// short list that is searched and never indexed, so the set answers for it
// exactly as a map keyed by id would.
type idSet struct {
	n     int
	bits  []uint64
	extra []types.ProcessID
	count int
}

// idWords returns the length of the bitset for ids 0..n-1.
func idWords(n int) int { return (n + 63) >> 6 }

// makeIDSet returns an empty set whose dense range is 0..n-1, on words when
// the caller carved idWords(n) zeroed words out of a larger block for it.
func makeIDSet(n int, words []uint64) idSet {
	if words == nil {
		words = make([]uint64, idWords(n))
	}
	return idSet{n: n, bits: words}
}

// reset empties the set and makes its dense range 0..n-1, on its own words
// when they are enough.
func (s *idSet) reset(n int) {
	s.bits = zeroed(s.bits, idWords(n))
	s.n, s.extra, s.count = n, s.extra[:0], 0
}

// zeroed returns s with length n and every element zero, on s's array when
// it is large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// add puts id in the set, reporting whether it was new.
func (s *idSet) add(id types.ProcessID) bool {
	if uint(id) < uint(s.n) {
		w, bit := uint(id)>>6, uint64(1)<<(uint(id)&63)
		if s.bits[w]&bit != 0 {
			return false
		}
		s.bits[w] |= bit
		s.count++
		return true
	}
	for _, have := range s.extra {
		if have == id {
			return false
		}
	}
	s.extra = append(s.extra, id)
	s.count++
	return true
}

// firstPerSender records the first message received from each sender,
// implementing the "waits for n-t messages" idiom of Protocols A, B and
// FloodMin: each correct process broadcasts exactly once, so only the first
// message per sender counts (a Byzantine process gains nothing by sending
// twice).
type firstPerSender struct {
	senders idSet
	// vals holds the recorded values in arrival order; what the protocols
	// ask of them (a count, a minimum, unanimity) does not need the sender.
	vals []types.Value
}

// reset empties the record for a run of n processes.
func (f *firstPerSender) reset(n int) {
	f.senders.reset(n)
	if cap(f.vals) < n {
		f.vals = make([]types.Value, 0, n)
	}
	f.vals = f.vals[:0]
}

// add records the first value from sender, reporting whether it was new.
func (f *firstPerSender) add(sender types.ProcessID, v types.Value) bool {
	if !f.senders.add(sender) {
		return false
	}
	f.vals = append(f.vals, v)
	return true
}

func (f *firstPerSender) count() int { return len(f.vals) }

// countValue returns how many recorded messages carry value v.
func (f *firstPerSender) countValue(v types.Value) int {
	c := 0
	for _, got := range f.vals {
		if got == v {
			c++
		}
	}
	return c
}

// allEqual reports whether every recorded message carries the same value,
// and returns it. It returns (0, false) when no message is recorded.
func (f *firstPerSender) allEqual() (types.Value, bool) {
	if len(f.vals) == 0 {
		return 0, false
	}
	v := f.vals[0]
	for _, got := range f.vals[1:] {
		if got != v {
			return 0, false
		}
	}
	return v, true
}

// min returns the minimum recorded value. It returns (0, false) when no
// message is recorded.
func (f *firstPerSender) min() (types.Value, bool) {
	if len(f.vals) == 0 {
		return 0, false
	}
	m := f.vals[0]
	for _, got := range f.vals[1:] {
		if got < m {
			m = got
		}
	}
	return m, true
}
