package smmem

import (
	"fmt"

	"kset/internal/prng"
	"kset/internal/types"
)

// TraceEventType enumerates observable shared-memory run events.
type TraceEventType uint8

// Trace event types.
const (
	EvRead TraceEventType = iota + 1
	EvWrite
	EvDecide
	EvCrash
)

// String names the event type.
func (t TraceEventType) String() string {
	switch t {
	case EvRead:
		return "read"
	case EvWrite:
		return "write"
	case EvDecide:
		return "decide"
	case EvCrash:
		return "crash"
	default:
		return fmt.Sprintf("event(%d)", int(t))
	}
}

// TraceEvent is one observable operation, reported to Config.Trace.
type TraceEvent struct {
	Type     TraceEventType
	Proc     types.ProcessID // acting process
	Owner    types.ProcessID // register owner (read/write)
	Register string
	Payload  types.Payload
	Present  bool        // read: register had been written
	Value    types.Value // decision value for EvDecide
	OpIndex  int         // global operation count at the time of the event
}

// String renders one trace line.
func (e TraceEvent) String() string {
	switch e.Type {
	case EvRead:
		if !e.Present {
			return fmt.Sprintf("[%5d] %s reads  %s/%s : (unwritten)", e.OpIndex, e.Proc, e.Owner, e.Register)
		}
		return fmt.Sprintf("[%5d] %s reads  %s/%s : %s", e.OpIndex, e.Proc, e.Owner, e.Register, e.Payload)
	case EvWrite:
		return fmt.Sprintf("[%5d] %s writes %s/%s : %s", e.OpIndex, e.Proc, e.Owner, e.Register, e.Payload)
	case EvDecide:
		return fmt.Sprintf("[%5d] %s DECIDES %d", e.OpIndex, e.Proc, e.Value)
	case EvCrash:
		return fmt.Sprintf("[%5d] %s CRASHES", e.OpIndex, e.Proc)
	default:
		return fmt.Sprintf("[%5d] %s %s", e.OpIndex, e.Type, e.Proc)
	}
}

// ScriptedCrashes crashes specific processes before specific operations.
type ScriptedCrashes struct {
	// AtOp[p] crashes p immediately before its AtOp[p]-th register
	// operation (0 = before its first, i.e. p never takes a step).
	AtOp map[types.ProcessID]int
}

var _ CrashAdversary = (*ScriptedCrashes)(nil)

// CrashBeforeOp implements CrashAdversary.
func (s *ScriptedCrashes) CrashBeforeOp(_ *View, p types.ProcessID, opIndex int) bool {
	at, ok := s.AtOp[p]
	return ok && opIndex >= at
}

// RandomCrashes crashes processes at random operation boundaries, up to the
// runtime's fault budget. RandomCrashes{Rate: r, Seed: s} is ready to use,
// and assigning it anew makes a used adversary a fresh one: a sweep keeps
// one for run after run.
type RandomCrashes struct {
	// Rate is the per-operation crash probability.
	Rate float64
	// Seed seeds the adversary's stream, which its first call draws from.
	Seed uint64

	rng    prng.Source
	seeded bool
}

var _ CrashAdversary = (*RandomCrashes)(nil)

// NewRandomCrashes builds a seeded random crash adversary.
func NewRandomCrashes(rate float64, seed uint64) *RandomCrashes {
	return &RandomCrashes{Rate: rate, Seed: seed}
}

// CrashBeforeOp implements CrashAdversary.
func (r *RandomCrashes) CrashBeforeOp(_ *View, _ types.ProcessID, _ int) bool {
	if !r.seeded {
		r.rng.Reset(r.Seed)
		r.seeded = true
	}
	return r.rng.Float64() < r.Rate
}
