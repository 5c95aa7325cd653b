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
// release deadline has passed).
func (h *Hold) open(view *View) bool {
	if h.ReleaseAtOps > 0 && view.Ops >= h.ReleaseAtOps {
		return true
	}
	for p := 0; p < view.N; p++ {
		if !h.Watch[p] || view.Faulty[p] {
			continue
		}
		if !view.Decided[p] {
			return false
		}
	}
	return true
}

// Next implements Scheduler.
func (h *Hold) Next(view *View, pending []types.ProcessID, rng *prng.Source) types.ProcessID {
	if h.open(view) {
		return pending[rng.Intn(len(pending))]
	}
	return pickExcluding(pending, h.Held, rng)
}

// pickExcluding draws uniformly among the pending processes not marked in
// excluded. When every pending process is marked it draws among them all:
// one is released arbitrarily to preserve the model's finite-delay
// guarantee. Either way it is one rng draw and no allocation.
func pickExcluding(pending []types.ProcessID, excluded []bool, rng *prng.Source) types.ProcessID {
	eligible := 0
	for _, pid := range pending {
		if !excluded[pid] {
			eligible++
		}
	}
	if eligible == 0 {
		return pending[rng.Intn(len(pending))]
	}
	k := rng.Intn(eligible)
	for _, pid := range pending {
		if excluded[pid] {
			continue
		}
		if k == 0 {
			return pid
		}
		k--
	}
	panic("smmem: pickExcluding: unreachable")
}

// Starve never grants operations to the starved processes while any other
// process is pending. It models maximal asymmetric slowness (a legal
// asynchronous schedule as long as starved processes are eventually run,
// which happens once everyone else decides or exits).
type Starve struct {
	// Starved[p] marks the processes to starve.
	Starved []bool
	// ReleaseAtOps, when positive, ends the starvation once that many
	// operations have been granted, keeping the schedule admissible (finite
	// delay) even when the non-starved processes never exit.
	ReleaseAtOps int
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
	if s.ReleaseAtOps > 0 && view.Ops >= s.ReleaseAtOps {
		return pending[rng.Intn(len(pending))]
	}
	return pickExcluding(pending, s.Starved, rng)
}
