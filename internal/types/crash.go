package types

import "kset/internal/prng"

// CrashKind names the local counter a crash point is keyed on. Its string
// is the kind's spelling in trace artifacts.
type CrashKind string

// Crash point kinds.
const (
	// CrashAtEvent crashes a process before its Index-th delivered event
	// (message passing; 0 = before Start, so it never runs an instruction).
	CrashAtEvent CrashKind = "at-event"
	// CrashAtSend crashes a process before its Index-th transmission
	// (message passing). A broadcast counts one transmission per recipient,
	// so a crash inside one truncates it.
	CrashAtSend CrashKind = "at-send"
	// CrashAtOp crashes a process before its Index-th register operation
	// (shared memory; 0 = before its first).
	CrashAtOp CrashKind = "at-op"
)

// CrashPoint is one crash failure: Proc stops between two steps, at the
// point its Kind counter reaches Index.
type CrashPoint struct {
	Proc  ProcessID
	Kind  CrashKind
	Index int
}

// CrashAdversary injects crash failures into either simulator. A runtime
// asks Crash at each of its crash sites — before a delivery (CrashAtEvent,
// Start being event 0) or a transmission (CrashAtSend) in message passing,
// before a register operation (CrashAtOp) in shared memory — with p's
// count of those steps so far, and crashes p exactly when it says yes. It
// asks only while p is correct and the fault budget t has room, so an
// adversary may be sloppy about counting; every question is asked on the
// goroutine that called Run.
type CrashAdversary interface {
	Crash(p ProcessID, kind CrashKind, index int) bool
}

// ScriptedCrashes crashes processes at given points, for reproducing the
// constructions in the paper's proofs and replaying recorded runs: p
// crashes at the first question of a point's kind whose index has reached
// the point's Index. A process has at most one point of each kind.
type ScriptedCrashes []CrashPoint

// Crash implements CrashAdversary.
func (s ScriptedCrashes) Crash(p ProcessID, kind CrashKind, index int) bool {
	for _, c := range s {
		if c.Proc == p && c.Kind == kind {
			return index >= c.Index
		}
	}
	return false
}

// RandomCrashes crashes processes at random crash sites, up to the
// runtime's fault budget: every question draws one Float64 from the
// adversary's stream and says yes below Rate. RandomCrashes{Rate: r, Seed:
// s} is ready to use, and assigning it anew makes a used adversary a fresh
// one: a sweep keeps one for run after run.
type RandomCrashes struct {
	// Rate is the per-question crash probability.
	Rate float64
	// Seed seeds the adversary's stream, which its first call draws from.
	Seed uint64

	rng    prng.Source
	seeded bool
}

// Crash implements CrashAdversary.
func (r *RandomCrashes) Crash(ProcessID, CrashKind, int) bool {
	if !r.seeded {
		r.rng.Reset(r.Seed)
		r.seeded = true
	}
	return r.rng.Float64() < r.Rate
}
