package mpnet

import (
	"fmt"
	"math/bits"
)

// CheckIndex walks the whole pool and reports the first place where the index
// or the filter marks disagree with the envelope slice. A pool that was never
// asked for either has nothing to check. The differential tests call it
// before every pick.
func (p *Pool) CheckIndex() error {
	if p.filtering {
		set := 0
		for i := 0; i < len(p.marks)<<6; i++ {
			if hasBit(p.marks, i) {
				if i >= p.marked {
					return fmt.Errorf("mark at position %d, only %d of %d envelopes asked about", i, p.marked, len(p.env))
				}
				set++
			}
		}
		if set != p.accepted || p.marked > len(p.env) {
			return fmt.Errorf("%d marks set, count says %d; %d marked of %d envelopes", set, p.accepted, p.marked, len(p.env))
		}
	}
	if !p.indexed {
		return nil
	}
	if len(p.slots) != p.seq {
		return fmt.Errorf("%d slots for %d sequence numbers", len(p.slots), p.seq)
	}
	for i := range p.env {
		if got := p.slots[p.env[i].Seq].idx; int(got) != i {
			return fmt.Errorf("seq %d is at position %d, index says %d", p.env[i].Seq, i, got)
		}
	}
	live := 0
	for seq := range p.slots {
		if p.slots[seq].idx >= 0 {
			live++
		}
	}
	if live != len(p.env) {
		return fmt.Errorf("%d live slots for %d envelopes", live, len(p.env))
	}

	// The send-order list visits every live message, oldest first.
	walked, prev := 0, int32(-1)
	for seq := p.oldest; seq >= 0; seq = p.slots[seq].next {
		s := p.slots[seq]
		if s.idx < 0 || s.prev != prev || seq <= prev {
			return fmt.Errorf("send-order list broken at seq %d (prev %d, slot %+v)", seq, prev, s)
		}
		walked, prev = walked+1, seq
	}
	if walked != live || p.newest != prev {
		return fmt.Errorf("send-order list has %d of %d messages, ends at %d, newest %d", walked, live, prev, p.newest)
	}

	// Each channel's list holds exactly its live messages, oldest first, and
	// the bitset marks exactly the channels that have any.
	walked, nonEmpty := 0, 0
	for ch := range p.head {
		prev := int32(-1)
		for seq := p.head[ch]; seq >= 0; seq = p.slots[seq].chNext {
			s := p.slots[seq]
			if s.idx < 0 || s.chPrev != prev || seq <= prev {
				return fmt.Errorf("channel %d list broken at seq %d (prev %d, slot %+v)", ch, seq, prev, s)
			}
			if env := p.env[s.idx]; p.channel(env.From, env.To) != ch {
				return fmt.Errorf("seq %d (%d->%d) is on channel %d", seq, env.From, env.To, ch)
			}
			walked, prev = walked+1, seq
		}
		if p.tail[ch] != prev {
			return fmt.Errorf("channel %d ends at %d, tail says %d", ch, prev, p.tail[ch])
		}
		marked := hasBit(p.nonEmpty, ch)
		if marked != (prev >= 0) {
			return fmt.Errorf("channel %d: non-empty bit %v, last message %d", ch, marked, prev)
		}
		if marked {
			nonEmpty++
		}
	}
	if walked != live {
		return fmt.Errorf("channel lists hold %d of %d messages", walked, live)
	}
	bitsSet := 0
	for _, w := range p.nonEmpty {
		bitsSet += bits.OnesCount64(w)
	}
	if p.channels != nonEmpty || bitsSet != nonEmpty {
		return fmt.Errorf("%d channels with traffic, count says %d, bitset %d", nonEmpty, p.channels, bitsSet)
	}
	return nil
}
