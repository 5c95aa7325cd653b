// Package acs layers Agreement on a Common Subset (ACS) — and, on top of
// it, an ordered log ("atomic broadcast") — over the cluster's per-instance
// k-set agreement machinery, following the BKR reduction (Ben-Or, Kelmer,
// Rabin): per round, every node broadcasts one proposal, and n concurrent
// binary vote instances (one per proposer) decide which proposals enter the
// round's common subset.
//
// # Protocol
//
// Rounds are numbered from 1 and activated in order. A node activates round
// r either by submitting a value (it proposes that value in r) or upon the
// first proposal it sees for r (it proposes an explicit noop, so every
// activated round has a proposal from every live node). Each first-seen
// proposal is re-broadcast once (crash-tolerant reliable broadcast: if any
// live node holds a proposal, every live node eventually does, because each
// link retransmits until acknowledged).
//
// Votes run as ordinary cluster instances of FloodMin with k = t+1 — the
// paper's SC(k, t) protocol inside its solvable region t < k — with binary
// inputs: a node votes 1 for proposer j's slot when it holds j's proposal,
// and votes 0 on every slot still unvoted once it holds n−t proposals
// (BKR's termination rule). The instance machinery disseminates every
// node's decision into a shared decision table.
//
// # Membership by quorum certificate
//
// k-set agreement with k > 1 lets individual vote decisions differ across
// nodes, so no node trusts its own decision. Instead, slot membership is
// read off the shared table: a slot is IN when at least n−t table rows
// decided 1, OUT when at least n−t rows decided 0. With t < n/2 (enforced
// by New) the two certificates are mutually exclusive — 2(n−t) > n — and
// each is monotone in the table, which every node converges on (a decision
// is broadcast once and first-write-wins). Hence no two nodes can ever
// disagree on a resolved slot, regardless of schedule.
//
// A round closes when all n slots are resolved and every IN proposal is
// held; rounds close strictly in order. The ordered log is the
// concatenation of closed rounds, IN non-noop entries sorted by proposer
// id — a deterministic function of certificates and proposal contents, so
// all live nodes produce byte-identical logs.
//
// # Termination
//
// When exactly t processes have crashed, FloodMin's wait-for-n−t barrier
// collects messages from precisely the surviving set, so every vote decides
// unanimously among survivors and both certificates resolve: every round
// closes deterministically. With fewer than t crashes the vote inputs can
// be mixed and a slot can in principle stall unresolved — the FLP
// impossibility applies; a deterministic asynchronous protocol cannot do
// better — though the proposal relay makes mixed votes rare in practice.
//
//ksetlint:package-allow determinism the log runs on the live cluster: rounds close on real messages, timers and locks
package acs

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"kset/internal/checker"
	"kset/internal/cluster"
	"kset/internal/obs"
	"kset/internal/theory"
	"kset/internal/types"
	"kset/internal/wire"
)

// idBit namespaces ACS vote instances away from ctl-started ones. Below it
// slots are numbered densely, round·n + proposer, so consecutive rounds'
// votes are consecutive ids and never jump the cluster's id window.
const idBit = uint64(1) << 63

// maxRound is the highest round whose vote ids stay below idBit on n nodes:
// round·n + n−1 ≤ 2⁶³−1.
func maxRound(n int) uint64 {
	return (idBit - 1 - uint64(n-1)) / uint64(n)
}

// maxRetainedRounds bounds the closed-round states kept for PullAcsRound
// replies; older rounds answer Closed with no slot detail.
const maxRetainedRounds = 1 << 12

// VoteInstance maps (round, proposer) on n nodes to the cluster instance id
// of the membership vote for that slot; round is at most maxRound(n).
func VoteInstance(round uint64, proposer types.ProcessID, n int) uint64 {
	return idBit | (round*uint64(n) + uint64(proposer))
}

// splitVoteInstance inverts VoteInstance on n nodes; ok is false for ids
// outside the ACS namespace.
func splitVoteInstance(id uint64, n int) (round uint64, proposer types.ProcessID, ok bool) {
	if id&idBit == 0 {
		return 0, 0, false
	}
	slot := id &^ idBit
	return slot / uint64(n), types.ProcessID(slot % uint64(n)), true
}

// Config configures an Engine.
type Config struct {
	// Node is the cluster transport the engine drives. The engine registers
	// its upcalls on it; attach the engine before the node serves.
	Node *cluster.Node
	// Log, if non-nil, receives round lifecycle events.
	Log *slog.Logger
}

// Engine is one node's ACS state machine. It owns no goroutines: all work
// happens in upcalls from the cluster (propose frames, decision-table rows,
// control requests) and in local Submit calls, serialized by e.mu. Lock
// order is e.mu before any node or link lock; the cluster invokes every
// upcall with no lock held.
type Engine struct {
	node *cluster.Node
	log  *slog.Logger
	self types.ProcessID
	n, t int
	k    int // vote-instance agreement bound, t+1

	rounds       *obs.Counter
	submits      *obs.Counter
	relays       *obs.Counter
	noops        *obs.Counter
	checkFails   *obs.Counter
	vectorSize   *obs.Histogram
	roundLatency *obs.Histogram

	mu      sync.Mutex
	states  map[uint64]*roundState
	maxAct  uint64 // highest activated round; 0 before the first
	next    uint64 // lowest unclosed round
	entries []wire.LogEntry
}

// roundState is one round's local view.
type roundState struct {
	started time.Time
	closed  bool
	held    int  // proposals held, self included
	voted0  bool // the hold-n−t threshold fired
	slots   []slotState
}

// slotState is one proposer's slot within a round.
type slotState struct {
	held   bool
	noop   bool
	value  types.Value
	voted  bool
	rows   []int8 // per-node decided vote: -1 unknown, else 0/1
	ones   int
	zeros  int
	status uint8 // wire.AcsPending / AcsIn / AcsOut
}

// New builds the engine for one node and registers its upcalls. It requires
// t < n/2: the quorum-certificate argument above needs 2(n−t) > n, and a
// larger t could let IN and OUT certificates form for the same slot.
func New(cfg Config) (*Engine, error) {
	n, t := cfg.Node.N(), cfg.Node.T()
	if 2*t >= n {
		return nil, fmt.Errorf("%w: acs needs t < n/2, got n=%d t=%d", cluster.ErrBadConfig, n, t)
	}
	if cfg.Log == nil {
		cfg.Log = obs.Discard()
	}
	reg := cfg.Node.Metrics()
	sizeBounds := []float64{0, 1, 2, 3, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}
	e := &Engine{
		node:         cfg.Node,
		log:          cfg.Log.With("node", cfg.Node.ID()),
		self:         cfg.Node.ID(),
		n:            n,
		t:            t,
		k:            t + 1,
		rounds:       reg.Counter("kset_acs_rounds_total"),
		submits:      reg.Counter("kset_acs_submits_total"),
		relays:       reg.Counter("kset_acs_relays_total"),
		noops:        reg.Counter("kset_acs_noops_proposed_total"),
		checkFails:   reg.Counter("kset_acs_check_failures_total"),
		vectorSize:   reg.Histogram("kset_acs_vector_size", sizeBounds),
		roundLatency: reg.Histogram("kset_acs_round_latency_seconds", obs.DefaultLatencyBounds()),
		states:       make(map[uint64]*roundState),
		next:         1,
	}
	cfg.Node.SetProposeHandler(e.onPropose)
	cfg.Node.SetDecideObserver(e.onDecide)
	cfg.Node.SetCtlHandler(e.onCtl)
	return e, nil
}

// Submit assigns v to the next unactivated round, proposes it there, and
// returns the round number. The value appears in the ordered log once that
// round closes (at the position the certificates agree on).
func (e *Engine) Submit(v types.Value) (uint64, error) {
	e.mu.Lock()
	if e.maxAct >= maxRound(e.n) {
		e.mu.Unlock()
		return 0, fmt.Errorf("acs: round space exhausted")
	}
	r := e.maxAct + 1
	ev := e.activateLocked(r, v, false)
	e.mu.Unlock()
	e.submits.Add(1)
	e.emit(ev)
	return r, nil
}

// activateLocked activates rounds maxAct+1..r in order: every round gets a
// self proposal — an explicit noop except round r, which carries (value,
// noop). Activation broadcasts the proposal, votes 1 on the own slot, and
// applies the hold-threshold rule.
func (e *Engine) activateLocked(r uint64, value types.Value, noop bool) []event {
	var ev []event
	for q := e.maxAct + 1; q <= r; q++ {
		st := &roundState{started: time.Now(), slots: make([]slotState, e.n)}
		for i := range st.slots {
			st.slots[i].rows = make([]int8, e.n)
			for j := range st.slots[i].rows {
				st.slots[i].rows[j] = -1
			}
		}
		e.states[q] = st
		e.maxAct = q
		p := wire.Propose{Round: q, Proposer: e.self, Noop: true}
		if q == r {
			p.Noop, p.Value = noop, value
		}
		if p.Noop {
			e.noops.Add(1)
		}
		ev = append(ev, e.holdLocked(q, st, p)...)
	}
	return ev
}

// holdLocked records one proposal in its slot (first copy wins), votes 1 on
// the slot, relays the proposal (or broadcasts it, when self-originated),
// and fires the vote-0 threshold once n−t proposals are held.
func (e *Engine) holdLocked(r uint64, st *roundState, p wire.Propose) []event {
	s := &st.slots[p.Proposer]
	if s.held {
		return nil
	}
	s.held, s.noop, s.value = true, p.Noop, p.Value
	st.held++
	// Re-broadcast exactly once per slot. The transport stamps From; peers
	// that already hold the proposal dedup on s.held.
	e.node.BroadcastPropose(wire.Propose{
		Round: r, Proposer: p.Proposer, Noop: p.Noop, Value: p.Value,
	})
	if p.Proposer != e.self {
		e.relays.Add(1)
	}
	var ev []event
	ev = append(ev, e.voteLocked(r, st, int(p.Proposer), 1)...)
	if !st.voted0 && st.held >= e.n-e.t {
		st.voted0 = true
		for i := range st.slots {
			ev = append(ev, e.voteLocked(r, st, i, 0)...)
		}
	}
	return ev
}

// voteLocked casts this node's vote for one slot by starting the slot's
// vote instance with the vote as input. The first vote wins; the instance
// machinery replays any buffered peer traffic for the instance.
func (e *Engine) voteLocked(r uint64, st *roundState, proposer int, vote types.Value) []event {
	s := &st.slots[proposer]
	if s.voted {
		return nil
	}
	s.voted = true
	err := e.node.StartInstance(wire.Start{
		Instance: VoteInstance(r, types.ProcessID(proposer), e.n),
		K:        e.k,
		T:        e.t,
		Proto:    uint8(theory.ProtoFloodMin),
		Input:    vote,
	})
	if err != nil {
		return []event{{kind: evError, err: fmt.Errorf("acs: vote r=%d slot=%d: %w", r, proposer, err)}}
	}
	return nil
}

// onPropose handles one first-seen proposal frame from a peer: it activates
// any rounds up to the proposal's, records the proposal, and votes. Rounds
// past maxRound, whose vote ids would overflow the namespace, are refused.
func (e *Engine) onPropose(p wire.Propose) {
	if p.Round == 0 || p.Round > maxRound(e.n) || int(p.Proposer) < 0 || int(p.Proposer) >= e.n {
		return
	}
	e.mu.Lock()
	var ev []event
	if p.Round > e.maxAct {
		ev = e.activateLocked(p.Round, types.DefaultValue, true)
	}
	st := e.states[p.Round]
	if st != nil && !st.closed {
		ev = append(ev, e.holdLocked(p.Round, st, p)...)
		ev = append(ev, e.tryCloseLocked()...)
	}
	e.mu.Unlock()
	e.emit(ev)
}

// onDecide folds one decision-table row into the slot tallies and resolves
// slot membership once a certificate forms.
func (e *Engine) onDecide(id uint64, node types.ProcessID, value types.Value) {
	r, proposer, ok := splitVoteInstance(id, e.n)
	if !ok || int(node) < 0 || int(node) >= e.n {
		return
	}
	e.mu.Lock()
	st := e.states[r]
	if st == nil || st.closed {
		e.mu.Unlock()
		return
	}
	var ev []event
	s := &st.slots[proposer]
	if value != 0 && value != 1 {
		e.checkFails.Add(1)
		ev = append(ev, event{kind: evError,
			err: fmt.Errorf("acs: r=%d slot=%d: node %d decided non-binary %d", r, proposer, node, value)})
	} else if s.rows[node] < 0 {
		s.rows[node] = int8(value)
		if value == 1 {
			s.ones++
		} else {
			s.zeros++
		}
		if s.status == wire.AcsPending {
			switch {
			case s.ones >= e.n-e.t:
				s.status = wire.AcsIn
			case s.zeros >= e.n-e.t:
				s.status = wire.AcsOut
			}
			if s.status != wire.AcsPending {
				ev = append(ev, e.tryCloseLocked()...)
			}
		}
	}
	e.mu.Unlock()
	e.emit(ev)
}

// tryCloseLocked closes rounds strictly in order while the lowest unclosed
// round is fully resolved: every slot IN or OUT, and every IN proposal
// held. Closing appends the round's IN non-noop entries to the log in
// proposer order, verifies the vote tables against the checker, releases
// the round's vote instances, and prunes old round state.
func (e *Engine) tryCloseLocked() []event {
	var ev []event
	for {
		st := e.states[e.next]
		if st == nil || st.closed || !closeable(st) {
			return ev
		}
		r := e.next
		in := 0
		for i := range st.slots {
			s := &st.slots[i]
			if err := e.verifySlot(r, i, s); err != nil {
				e.checkFails.Add(1)
				ev = append(ev, event{kind: evError, err: err})
			}
			if s.status != wire.AcsIn {
				continue
			}
			in++
			if !s.noop {
				e.entries = append(e.entries, wire.LogEntry{
					Round: r, Proposer: types.ProcessID(i), Value: s.value,
				})
			}
		}
		st.closed = true
		e.next++
		for i := range st.slots {
			e.node.ReleaseInstance(VoteInstance(r, types.ProcessID(i), e.n))
		}
		if r > maxRetainedRounds {
			delete(e.states, r-maxRetainedRounds)
		}
		e.rounds.Add(1)
		e.vectorSize.Observe(float64(in))
		e.roundLatency.Observe(time.Since(st.started).Seconds())
		ev = append(ev, event{kind: evClosed, round: r, in: in, logLen: len(e.entries)})
	}
}

// closeable reports whether every slot is resolved and every IN proposal is
// held (its value is needed for the log).
func closeable(st *roundState) bool {
	for i := range st.slots {
		s := &st.slots[i]
		if s.status == wire.AcsPending {
			return false
		}
		if s.status == wire.AcsIn && !s.held {
			return false
		}
	}
	return true
}

// verifySlot runs the repo's checker over one closed slot's vote table: the
// vote instance must satisfy termination (undecided rows at most t, all
// treated as crashed) and k-set agreement, and the two membership
// certificates must not both have formed.
func (e *Engine) verifySlot(round uint64, idx int, s *slotState) error {
	rec := &types.RunRecord{
		N:         e.n,
		T:         e.t,
		K:         e.k,
		Model:     types.MPCR,
		Inputs:    make([]types.Value, e.n), // unknown for peers; validity not checked
		Faulty:    make([]bool, e.n),
		Decided:   make([]bool, e.n),
		Decisions: make([]types.Value, e.n),
	}
	for i, row := range s.rows {
		if row < 0 {
			rec.Faulty[i] = true
			continue
		}
		rec.Decided[i] = true
		rec.Decisions[i] = types.Value(row)
	}
	if err := checker.CheckTermination(rec); err != nil {
		return fmt.Errorf("acs: r=%d slot=%d: %w", round, idx, err)
	}
	if err := checker.CheckAgreement(rec); err != nil {
		return fmt.Errorf("acs: r=%d slot=%d: %w", round, idx, err)
	}
	if s.ones >= e.n-e.t && s.zeros >= e.n-e.t {
		return fmt.Errorf("acs: r=%d slot=%d: both certificates formed (ones=%d zeros=%d)", round, idx, s.ones, s.zeros)
	}
	return nil
}

// onCtl answers the ACS control vocabulary on behalf of the node.
func (e *Engine) onCtl(m wire.Msg) (wire.Msg, bool) {
	switch v := m.(type) {
	case wire.AcsSubmit:
		r, err := e.Submit(v.Value)
		if err != nil {
			return wire.AcsAck{Round: 0}, true
		}
		return wire.AcsAck{Round: r}, true
	case wire.PullAcsRound:
		return e.Round(v.Round), true
	case wire.PullLog:
		return e.LogWindow(v.Start, v.Max), true
	}
	return nil, false
}

// Round reports this node's view of one round: closure, and per-slot
// status/held proposal while the round state is retained.
func (e *Engine) Round(r uint64) wire.AcsRound {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := wire.AcsRound{Round: r, Closed: r >= 1 && r < e.next}
	st := e.states[r]
	if st == nil {
		return out
	}
	out.Slots = make([]wire.AcsSlot, len(st.slots))
	for i := range st.slots {
		s := &st.slots[i]
		out.Slots[i] = wire.AcsSlot{Status: s.status, Held: s.held, Noop: s.noop, Value: s.value}
	}
	return out
}

// LogWindow returns up to max ordered-log entries starting at index start,
// plus the current total. max is clamped to wire.MaxLogEntries; zero means
// length-only (no entries).
func (e *Engine) LogWindow(start uint64, max int) wire.Log {
	if max < 0 {
		max = 0
	}
	if max > wire.MaxLogEntries {
		max = wire.MaxLogEntries
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := wire.Log{Total: uint64(len(e.entries)), Start: start}
	if start >= uint64(len(e.entries)) || max == 0 {
		return out
	}
	end := start + uint64(max)
	if end > uint64(len(e.entries)) {
		end = uint64(len(e.entries))
	}
	out.Entries = append([]wire.LogEntry(nil), e.entries[start:end]...)
	return out
}

// Closed returns the number of closed rounds.
func (e *Engine) Closed() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.next - 1
}

// event defers logging out of the e.mu critical section (the structured
// logger writes to an io.Writer; no I/O runs under the engine lock).
type event struct {
	kind   int
	round  uint64
	in     int
	logLen int
	err    error
}

const (
	evClosed = iota
	evError
)

// emit logs deferred events; called with no locks held. A closure is
// logged only when info is enabled, so a disabled log boxes no fields.
func (e *Engine) emit(ev []event) {
	for _, v := range ev {
		switch v.kind {
		case evClosed:
			if e.log.Enabled(context.Background(), slog.LevelInfo) {
				e.log.Info("acs round closed",
					"round", v.round, "in", v.in, "log_len", v.logLen)
			}
		case evError:
			e.log.Error("acs check failed", "err", v.err.Error())
		}
	}
}
