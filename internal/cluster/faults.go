package cluster

import (
	"time"

	"kset/internal/prng"
)

// Faults configures the transport-level fault injector. Faults apply to
// sequenced peer frames (protocol messages and decide announcements) at each
// transmission attempt; the retransmit layer recovers from them, so the
// asynchronous model's guarantee — arbitrary finite delay, no loss — still
// holds end to end while the network underneath behaves adversarially.
//
// All injection decisions are drawn from a deterministic stream seeded from
// (node seed, peer id), so two runs with the same seeds inject the same
// faults at the same decision points (real-time interleaving still varies —
// the Go scheduler and the kernel are part of the adversary here).
type Faults struct {
	// Drop is the probability a transmission attempt is discarded. The
	// frame stays queued and is retransmitted after the retransmit
	// interval.
	Drop float64
	// Dup is the probability a transmission attempt is sent twice.
	Dup float64
	// Delay is the probability a transmission attempt is held back by a
	// uniform random duration in (0, MaxDelay] before its first send.
	Delay float64
	// MaxDelay bounds injected delays (default 20ms when Delay > 0).
	MaxDelay time.Duration
}

// Zero reports whether the injector is fully disabled.
func (f Faults) Zero() bool { return f.Drop == 0 && f.Dup == 0 && f.Delay == 0 }

// action is one injection decision for a transmission attempt.
type action uint8

const (
	actSend action = iota
	actDrop
	actDup
	actDelay
)

// roll draws one injection decision. rng is confined to the link writer
// goroutine that owns it.
func (f Faults) roll(rng *prng.Source) action {
	if f.Zero() {
		return actSend
	}
	x := rng.Float64()
	if x < f.Drop {
		return actDrop
	}
	x -= f.Drop
	if x < f.Dup {
		return actDup
	}
	x -= f.Dup
	if x < f.Delay {
		return actDelay
	}
	return actSend
}

// delay draws an injected delay duration in (0, MaxDelay].
func (f Faults) delay(rng *prng.Source) time.Duration {
	max := f.MaxDelay
	if max <= 0 {
		max = 20 * time.Millisecond
	}
	return time.Duration(rng.Intn(int(max))) + 1
}
