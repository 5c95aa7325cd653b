package mpnet

import (
	"testing"

	"kset/internal/prng"
	"kset/internal/types"
)

// naivePickAmong is PickAmong without the marks: count the accepted
// envelopes, draw, walk to the one drawn.
func naivePickAmong(p *Pool, rng *prng.Source, ok func(*Envelope) bool) int {
	var accepted []int
	for i := range p.env {
		if ok(&p.env[i]) {
			accepted = append(accepted, i)
		}
	}
	if len(accepted) == 0 {
		return rng.Intn(len(p.env))
	}
	return accepted[rng.Intn(len(accepted))]
}

// TestPoolAgainstModel drives a pool through random sends, filtered and
// unfiltered picks, filter changes and crash discards — including the orders
// no production policy produces, such as an unfiltered pick between two
// filtered ones — and checks every answer against a scan of the envelope
// slice, and the index and marks against the slice after every step.
func TestPoolAgainstModel(t *testing.T) {
	const n = 6
	for seed := uint64(1); seed <= 50; seed++ {
		rng := prng.New(seed)
		var p Pool
		p.reset(n)
		crashed := make([]bool, n)
		threshold := types.ProcessID(rng.Intn(n))
		filter := func(env *Envelope) bool { return env.From <= threshold }
		check := func(step int, what string) {
			t.Helper()
			if err := p.CheckIndex(); err != nil {
				t.Fatalf("seed %d step %d after %s: %v", seed, step, what, err)
			}
		}
		for step := 0; step < 400; step++ {
			for sends := rng.Intn(4); sends > 0 || p.Len() == 0; sends-- {
				p.add(Envelope{From: types.ProcessID(rng.Intn(n)), To: types.ProcessID(rng.Intn(n))})
			}
			check(step, "sends")
			switch op := rng.Intn(10); {
			case op < 5: // filtered pick, the filter sometimes having moved
				changed := rng.Intn(5) == 0
				if changed {
					threshold = types.ProcessID(rng.Intn(n))
				}
				mine, theirs := *rng, *rng
				want := naivePickAmong(&p, &theirs, filter)
				if got := p.PickAmong(&mine, changed, filter); got != want || mine != theirs {
					t.Fatalf("seed %d step %d: PickAmong = %d, a scan says %d (same rng state after: %v)",
						seed, step, got, want, mine == theirs)
				}
				p.remove(want)
				check(step, "filtered pick")
			case op < 7: // unfiltered pick
				p.remove(rng.Intn(p.Len()))
				check(step, "unfiltered pick")
			case op < 9: // the index questions
				oldest, newest := 0, 0
				for i, env := range p.env {
					if env.Seq < p.env[oldest].Seq {
						oldest = i
					}
					if env.Seq > p.env[newest].Seq {
						newest = i
					}
				}
				if p.Oldest() != oldest || p.Newest() != newest {
					t.Fatalf("seed %d step %d: oldest %d newest %d, a scan says %d and %d",
						seed, step, p.Oldest(), p.Newest(), oldest, newest)
				}
				// Channel heads in (from, to) order, by scanning channel by
				// channel.
				k := 0
				for ch := 0; ch < n*n; ch++ {
					head := -1
					for i, env := range p.env {
						if p.channel(env.From, env.To) == ch && (head < 0 || env.Seq < p.env[head].Seq) {
							head = i
						}
					}
					if head < 0 {
						continue
					}
					if got := p.ChannelHead(k); got != head {
						t.Fatalf("seed %d step %d: head of channel %d (%d-th with traffic) at %d, a scan says %d",
							seed, step, ch, k, got, head)
					}
					k++
				}
				if p.Channels() != k {
					t.Fatalf("seed %d step %d: %d channels with traffic, a scan says %d", seed, step, p.Channels(), k)
				}
				p.remove(p.ChannelHead(rng.Intn(k)))
				check(step, "channel pick")
			default: // a crash discards the messages to one process
				crashed[rng.Intn(n)] = true
				p.discardTo(crashed)
				check(step, "discard")
				for i := range crashed {
					crashed[i] = false
				}
			}
		}
	}
}
