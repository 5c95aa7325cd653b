package mpnet

import (
	"kset/internal/prng"
	"kset/internal/types"
)

// RandomCrashes crashes processes at random points — before deliveries and
// in the middle of broadcasts — up to the runtime's fault budget. Rate is
// the per-opportunity crash probability; the runtime's budget enforcement
// keeps the total at or below t regardless of Rate.
//
// RandomCrashes{Rate: r, Seed: s} is ready to use, and assigning it anew
// makes a used adversary a fresh one: a sweep keeps one for run after run.
type RandomCrashes struct {
	Rate float64
	// Seed seeds the adversary's stream, which its first call draws from.
	Seed uint64

	rng    prng.Source
	seeded bool
}

var _ CrashAdversary = (*RandomCrashes)(nil)

// NewRandomCrashes builds a seeded random crash adversary. A Rate around
// 2/n gives runs with a healthy mix of fault counts.
func NewRandomCrashes(rate float64, seed uint64) *RandomCrashes {
	return &RandomCrashes{Rate: rate, Seed: seed}
}

// crash draws one crash opportunity.
func (r *RandomCrashes) crash() bool {
	if !r.seeded {
		r.rng.Reset(r.Seed)
		r.seeded = true
	}
	return r.rng.Float64() < r.Rate
}

// CrashBeforeDeliver implements CrashAdversary.
func (r *RandomCrashes) CrashBeforeDeliver(_ *View, _ types.ProcessID, _ int) bool {
	return r.crash()
}

// CrashDuringSend implements CrashAdversary.
func (r *RandomCrashes) CrashDuringSend(_ *View, _ types.ProcessID, _ types.ProcessID, _ int) bool {
	return r.crash()
}

// ScriptedCrashes crashes specific processes at specific points, for
// reproducing the constructions in the paper's proofs exactly.
type ScriptedCrashes struct {
	// AtEvent[p] crashes p immediately before it processes its AtEvent[p]-th
	// event (0 = before Start, i.e. p never executes an instruction).
	AtEvent map[types.ProcessID]int
	// AtSend[p] crashes p immediately before its AtSend[p]-th transmission
	// (0 = before its first send). Broadcasts count one transmission per
	// recipient, so values in [1, n-1] truncate p's first broadcast.
	AtSend map[types.ProcessID]int
}

var _ CrashAdversary = (*ScriptedCrashes)(nil)

// CrashBeforeDeliver implements CrashAdversary.
func (s *ScriptedCrashes) CrashBeforeDeliver(_ *View, p types.ProcessID, eventIndex int) bool {
	at, ok := s.AtEvent[p]
	return ok && eventIndex >= at
}

// CrashDuringSend implements CrashAdversary.
func (s *ScriptedCrashes) CrashDuringSend(_ *View, p types.ProcessID, _ types.ProcessID, sendIndex int) bool {
	at, ok := s.AtSend[p]
	return ok && sendIndex >= at
}
