package smmem

import (
	"kset/internal/prng"
	"kset/internal/types"
)

// FairRandom grants the next operation to a uniformly random pending
// process: every enabled process takes infinitely many steps with
// probability 1, so it is a fair schedule of the asynchronous model.
type FairRandom struct{}

var _ Scheduler = FairRandom{}

// Next implements Scheduler.
func (FairRandom) Next(_ *View, pending []types.ProcessID, rng *prng.Source) types.ProcessID {
	return pending[rng.Intn(len(pending))]
}

// RoundRobin grants operations in increasing process id order, wrapping
// around. A deterministic baseline schedule.
type RoundRobin struct {
	last int
}

var _ Scheduler = (*RoundRobin)(nil)

// Next implements Scheduler.
func (r *RoundRobin) Next(_ *View, pending []types.ProcessID, _ *prng.Source) types.ProcessID {
	for _, pid := range pending {
		if int(pid) > r.last {
			r.last = int(pid)
			return pid
		}
	}
	r.last = int(pending[0])
	return pending[0]
}

// Hold realizes the paper's shared-memory impossibility constructions
// (Lemmas 4.3 and 4.9): the held processes "do not take any step until after
// all processes in g decide", where g is the watched set. Once every
// non-crashed watched process has decided, the held processes are released.
//
// Held and Watch must not change while a run uses the policy; a Hold may be
// reused for any number of runs, one after the other, and its fields
// rewritten between them.
type Hold struct {
	// Held[p] marks processes that may not take steps while the gate is
	// closed.
	Held []bool
	// Watch[p] marks the processes whose decisions open the gate. Faulty
	// (crashed or Byzantine) watched processes are ignored: they may never
	// decide.
	Watch []bool
	// ReleaseAtOps, when positive, opens the gate unconditionally once that
	// many operations have been granted. An asynchronous schedule may delay
	// a process arbitrarily long but not forever; the deadline keeps the
	// schedule admissible even when the watched processes can never decide
	// (e.g. because a protocol's other participants spin forever).
	ReleaseAtOps int

	kept kept
	// The gate of the kept run: opened once it is open, watched the first
	// watched process it may still wait for. Decisions and faults are never
	// undone and the operation count only grows, so an open gate stays open
	// and a process that stopped holding it never holds it again.
	opened  bool
	watched int
}

var _ Scheduler = (*Hold)(nil)

// NewHold builds a Hold scheduler: held processes take no step until every
// non-crashed watched process has decided.
func NewHold(n int, held, watch []types.ProcessID) *Hold {
	h := &Hold{Held: make([]bool, n), Watch: make([]bool, n)}
	for _, p := range held {
		h.Held[p] = true
	}
	for _, p := range watch {
		h.Watch[p] = true
	}
	return h
}

// open reports whether every non-faulty watched process has decided (or the
// release deadline has passed), latching the answer once it is yes.
func (h *Hold) open(view *View) bool {
	if h.opened {
		return true
	}
	if h.ReleaseAtOps > 0 && view.Ops >= h.ReleaseAtOps {
		h.opened = true
		return true
	}
	for ; h.watched < view.N; h.watched++ {
		if p := h.watched; h.Watch[p] && !view.Faulty[p] && !view.Decided[p] {
			return false
		}
	}
	h.opened = true
	return true
}

// Next implements Scheduler.
func (h *Hold) Next(view *View, pending []types.ProcessID, rng *prng.Source) types.ProcessID {
	if h.kept.newRun(view) {
		h.opened, h.watched = false, 0
	}
	if h.open(view) {
		return pending[rng.Intn(len(pending))]
	}
	return h.kept.pick(pending, h.Held, rng)
}

// kept is what Hold and Starve keep of one run between picks: the run's view
// and number, and the pending processes their policy does not exclude, in
// pending's order, rebuilt only when len(pending) is not the one they were
// taken from (within a run pending only shrinks, see Scheduler).
type kept struct {
	view     *View
	run      uint64
	pending  int // len(pending) eligible was taken from; -1 before the first pick of a run
	eligible []types.ProcessID
}

// newRun reports whether view and its Run are not the kept run's, and if so
// starts keeping that run with nothing derived yet. Holding the pointer keeps
// the View's Runner from being another's.
func (k *kept) newRun(view *View) bool {
	if view == k.view && view.Run == k.run {
		return false
	}
	k.view, k.run, k.pending = view, view.Run, -1
	return true
}

// pick draws uniformly among the pending processes not marked in excluded.
// When every pending process is marked it draws among them all: one is
// released arbitrarily to preserve the model's finite-delay guarantee.
// Either way it is one rng draw, and no allocation after the first pick.
func (k *kept) pick(pending []types.ProcessID, excluded []bool, rng *prng.Source) types.ProcessID {
	if len(pending) != k.pending {
		k.pending = len(pending)
		if cap(k.eligible) < len(pending) {
			k.eligible = make([]types.ProcessID, 0, len(pending))
		}
		k.eligible = k.eligible[:0]
		for _, pid := range pending {
			if !excluded[pid] {
				k.eligible = append(k.eligible, pid)
			}
		}
	}
	if len(k.eligible) == 0 {
		return pending[rng.Intn(len(pending))]
	}
	return k.eligible[rng.Intn(len(k.eligible))]
}

// Starve never grants operations to the starved processes while any other
// process is pending. It models maximal asymmetric slowness (a legal
// asynchronous schedule as long as starved processes are eventually run,
// which happens once everyone else decides or exits).
//
// Starved must not change while a run uses the policy; a Starve may be
// reused for any number of runs, one after the other, and its fields
// rewritten between them.
type Starve struct {
	// Starved[p] marks the processes to starve.
	Starved []bool
	// ReleaseAtOps, when positive, ends the starvation once that many
	// operations have been granted, keeping the schedule admissible (finite
	// delay) even when the non-starved processes never exit.
	ReleaseAtOps int

	kept kept
}

var _ Scheduler = (*Starve)(nil)

// NewStarve builds a Starve scheduler for the given processes.
func NewStarve(n int, ids ...types.ProcessID) *Starve {
	s := &Starve{Starved: make([]bool, n)}
	for _, p := range ids {
		s.Starved[p] = true
	}
	return s
}

// Next implements Scheduler.
func (s *Starve) Next(view *View, pending []types.ProcessID, rng *prng.Source) types.ProcessID {
	s.kept.newRun(view)
	if s.ReleaseAtOps > 0 && view.Ops >= s.ReleaseAtOps {
		return pending[rng.Intn(len(pending))]
	}
	return s.kept.pick(pending, s.Starved, rng)
}
