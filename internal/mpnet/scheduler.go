package mpnet

import (
	"kset/internal/prng"
	"kset/internal/types"
)

// FairRandom delivers a uniformly random in-flight message. Under it every
// in-flight message is eventually delivered with probability 1, so it is a
// fair (admissible) schedule of the asynchronous model: runs that fail to
// terminate under FairRandom within the event budget are genuine
// termination failures, not scheduler artifacts.
type FairRandom struct{}

var _ Scheduler = FairRandom{}

// Next implements Scheduler.
func (FairRandom) Next(_ *View, pool *Pool, rng *prng.Source) int {
	return rng.Intn(pool.Len())
}

// FIFO delivers the oldest in-flight message (global send order). Useful as
// a deterministic baseline and for reproducing synchronous-looking runs.
type FIFO struct{}

var _ Scheduler = FIFO{}

// Next implements Scheduler.
func (FIFO) Next(_ *View, pool *Pool, _ *prng.Source) int { return pool.Oldest() }

// LIFO delivers the newest in-flight message first. An adversarially
// "bursty" baseline: fresh traffic systematically overtakes old traffic,
// maximizing reordering while still draining every message eventually
// (the pool shrinks whenever the protocols go quiet).
type LIFO struct{}

var _ Scheduler = LIFO{}

// Next implements Scheduler.
func (LIFO) Next(_ *View, pool *Pool, _ *prng.Source) int { return pool.Newest() }

// ChannelFIFO picks a random ordered channel (sender, recipient) with
// traffic and delivers its oldest message: per-channel FIFO links with
// random cross-channel interleaving, the classic "FIFO channels" refinement
// of the asynchronous model. The draw is over the channels in (sender,
// recipient) order.
type ChannelFIFO struct{}

var _ Scheduler = ChannelFIFO{}

// Next implements Scheduler.
func (ChannelFIFO) Next(_ *View, pool *Pool, rng *prng.Source) int {
	return pool.ChannelHead(rng.Intn(pool.Channels()))
}

// GroupGate realizes the partition schedules used throughout the paper's
// impossibility proofs (Lemmas 3.3, 3.6, 3.9, 3.11, 4.3, 4.9): processes are
// partitioned into groups, and a message crossing from one group into
// another is held "in transit" until every non-crashed member of the
// *recipient's* group has decided. Inside a group, delivery is fair-random.
//
// This is exactly the run construction "all messages sent to processes in
// g_i by processes not in g_i are delayed until all processes in g_i have
// decided": each group runs in complete isolation until it decides, then the
// dam breaks.
//
// If no intra-group message is deliverable and some gate is still closed,
// the scheduler falls back to delivering a cross-group message
// (Pool.PickAmong). Constructions from the paper are engineered so the
// fallback never fires before the decisions it needs.
type GroupGate struct {
	// Group[i] is the group index of process i.
	Group []int
	// FromAlways marks senders whose messages are always eligible,
	// regardless of gates. The Byzantine constructions (Lemmas 3.9, 3.11)
	// use it for the faulty set F, which "communicates with every group".
	//
	// Group and FromAlways may be rewritten between runs (a sweep reuses
	// one GroupGate, re-partitioned for every run), not during one.
	FromAlways []bool

	// open is the gates' state as of the View view at Changes changes, and
	// pending the scratch gates counts in.
	open    []bool
	pending []int
	view    *View
	changes uint64
}

var _ Scheduler = (*GroupGate)(nil)

// NewGroupGate builds a GroupGate from explicit group member lists.
func NewGroupGate(n int, groups [][]types.ProcessID) *GroupGate {
	g := &GroupGate{Group: make([]int, n)}
	for i := range g.Group {
		g.Group[i] = -1
	}
	for gi, members := range groups {
		for _, p := range members {
			g.Group[p] = gi
		}
	}
	return g
}

// gates works out, in one walk over the processes, which groups accept
// cross-group traffic: those whose every non-faulty member has decided.
// Faulty members (crashed or Byzantine) are ignored — a Byzantine process may
// never decide, and waiting for it would wedge the gate. The result is
// indexed by group+1, since Group holds -1 for a process in no listed group;
// changed reports whether it differs from the previous call's. The walk is
// made once per change of the View (see View.Changes); between changes the
// gates stand as they are.
func (g *GroupGate) gates(view *View) (open []bool, changed bool) {
	if view == g.view && view.Changes == g.changes {
		return g.open, false
	}
	g.view, g.changes = view, view.Changes
	groups := 1
	for _, gi := range g.Group {
		if gi+2 > groups {
			groups = gi + 2
		}
	}
	if len(g.open) != groups {
		if cap(g.open) < groups {
			g.open, g.pending = make([]bool, groups), make([]int, groups)
		}
		g.open, g.pending = g.open[:groups], g.pending[:groups]
		changed = true
	}
	for i := range g.pending {
		g.pending[i] = 0
	}
	for p := 0; p < view.N; p++ {
		if !view.Faulty[p] && !view.Decided[p] {
			g.pending[g.Group[p]+1]++
		}
	}
	for i, waiting := range g.pending {
		if g.open[i] != (waiting == 0) {
			g.open[i], changed = waiting == 0, true
		}
	}
	return g.open, changed
}

// Next implements Scheduler.
func (g *GroupGate) Next(view *View, pool *Pool, rng *prng.Source) int {
	open, changed := g.gates(view)
	return pool.PickAmong(rng, changed, func(env *Envelope) bool {
		if len(g.FromAlways) > 0 && g.FromAlways[env.From] {
			return true
		}
		sg, rg := g.Group[env.From], g.Group[env.To]
		return sg == rg || open[rg+1]
	})
}

// Isolate returns a GroupGate in which each listed set of processes is its
// own group and every unlisted process forms the final group together.
func Isolate(n int, sets ...[]types.ProcessID) *GroupGate {
	assigned := make([]bool, n)
	groups := make([][]types.ProcessID, 0, len(sets)+1)
	for _, s := range sets {
		groups = append(groups, s)
		for _, p := range s {
			assigned[p] = true
		}
	}
	var rest []types.ProcessID
	for i := 0; i < n; i++ {
		if !assigned[i] {
			rest = append(rest, types.ProcessID(i))
		}
	}
	if len(rest) > 0 {
		groups = append(groups, rest)
	}
	return NewGroupGate(n, groups)
}

// PreferIntra delivers intra-group messages while any exist, then
// cross-group ones: every process hears its whole neighbourhood before the
// outside world. Unlike GroupGate it never blocks on decisions, so it is
// usable where groups cannot decide alone — the run shape of Lemma 3.6's
// proof, where each process fills its quota with group messages first.
type PreferIntra struct {
	// Group[i] is the group index of process i.
	Group []int
}

var _ Scheduler = (*PreferIntra)(nil)

// NewPreferIntra builds a PreferIntra scheduler from group member lists.
func NewPreferIntra(n int, groups [][]types.ProcessID) *PreferIntra {
	p := &PreferIntra{Group: make([]int, n)}
	for i := range p.Group {
		p.Group[i] = -1
	}
	for gi, members := range groups {
		for _, id := range members {
			p.Group[id] = gi
		}
	}
	return p
}

// Next implements Scheduler.
func (p *PreferIntra) Next(_ *View, pool *Pool, rng *prng.Source) int {
	return pool.PickAmong(rng, false, func(env *Envelope) bool {
		return p.Group[env.From] == p.Group[env.To]
	})
}

// DelayProcess holds every message *from* the given processes until all
// other correct processes have decided, then releases them. It realizes the
// "p's messages after time T are delayed until after all processes in g
// decide" constructions of Lemmas 3.4 and 3.5.
type DelayProcess struct {
	// Delayed[p] marks senders whose outbound messages are held.
	Delayed []bool
}

var _ Scheduler = (*DelayProcess)(nil)

// NewDelayProcess builds a DelayProcess holding traffic from the given ids.
func NewDelayProcess(n int, ids ...types.ProcessID) *DelayProcess {
	d := &DelayProcess{Delayed: make([]bool, n)}
	for _, id := range ids {
		d.Delayed[id] = true
	}
	return d
}

// Next implements Scheduler.
func (d *DelayProcess) Next(view *View, pool *Pool, rng *prng.Source) int {
	allOthersDecided := true
	for p := 0; p < view.N; p++ {
		if d.Delayed[p] || view.Crashed[p] || view.Faulty[p] {
			continue
		}
		if !view.Decided[p] {
			allOthersDecided = false
			break
		}
	}
	if allOthersDecided {
		return rng.Intn(pool.Len())
	}
	return pool.PickAmong(rng, false, func(env *Envelope) bool { return !d.Delayed[env.From] })
}
