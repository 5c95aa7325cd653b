// The runtime below uses goroutines and channels even though smmem is a
// *deterministic* simulator: exactly one process goroutine executes at any
// moment. The process that has just posted its next register operation holds
// the turn: it picks who goes next, performs that operation on the memory,
// wakes the chosen process and parks (or simply carries on when it picked
// itself). Everything the runtime shares — registers, scheduler state, the
// view, the other processes' request slots — is touched by the turn holder
// alone, and the turn moves through a channel, so the schedule — and
// therefore the run — is still a pure function of the seed. The race detector
// validates the handoff protocol; the seed-stability test and the reference
// comparison (reference_test.go) validate the determinism claim end to end.
//
//ksetlint:file-allow determinism.sync one WaitGroup lets Run outlive every process goroutine; no lock, nothing is shared off-turn
//ksetlint:file-allow determinism.chan one-slot wake channels carry the turn from process to process, not free-running communication
//ksetlint:file-allow determinism.goroutine one goroutine per process, but strictly turn-based: never two runnable at once

package smmem

import (
	"errors"
	"fmt"
	"sync"

	"kset/internal/prng"
	"kset/internal/types"
)

// DefaultOpBudgetFactor scales the default operation budget: budget =
// factor * n * n + n. Spinning protocols (Protocol F, SIMULATION pollers)
// perform O(n) operations per round, so this allows O(n) rounds per process
// under a fair scheduler — ample for every protocol in the paper.
const DefaultOpBudgetFactor = 512

// Config describes one simulated shared-memory run.
type Config struct {
	N int // number of processes
	T int // declared failure bound
	K int // agreement bound

	// Inputs are the process input values; len(Inputs) must equal N.
	Inputs []types.Value

	// NewProtocol constructs the protocol instance for a correct process.
	NewProtocol func(id types.ProcessID) Protocol

	// Byzantine maps faulty process ids to their strategies. They count
	// against the fault budget T. The API still restricts their writes to
	// their own registers (single-writer is enforced by the memory).
	Byzantine map[types.ProcessID]Protocol

	// Crash injects crash failures; nil means no crashes.
	Crash CrashAdversary

	// Scheduler picks operation interleaving; nil means FairRandom.
	Scheduler Scheduler

	// Seed drives every random choice in the run.
	Seed uint64

	// MaxOps caps register operations; 0 selects the default budget.
	MaxOps int

	// Trace, if non-nil, observes every operation, decision and crash.
	Trace func(TraceEvent)

	// Recorder, if non-nil, observes the run's scheduling decisions (grants
	// and crash points) for later replay. See internal/trace.
	Recorder Recorder
}

// Errors reported by Run for misconfigured or buggy setups.
var (
	ErrBadConfig    = errors.New("smmem: invalid configuration")
	ErrDoubleDecide = errors.New("smmem: correct process decided twice")
	ErrFaultBudget  = errors.New("smmem: adversary exceeded fault budget")
	ErrBadSchedule  = errors.New("smmem: scheduler chose a non-pending process")
)

// regKey names one register: single-writer means the owner is part of the
// identity.
type regKey struct {
	owner types.ProcessID
	name  string
}

// opKind enumerates the register operations a process can post.
type opKind uint8

const (
	opRead opKind = iota + 1
	opWrite
)

// haltSignal is panicked inside API calls to unwind a process goroutine
// when the runtime halts or crashes it; the goroutine wrapper recovers it.
type haltSignal struct{}

// turn is what a process finds once it has posted its request and run the
// schedule for as long as the turn was its to give.
type turn uint8

const (
	turnMine turn = iota // it granted itself: the result is in its slot
	turnAway             // another process runs: park until woken
	turnOver             // it was crashed or the run ended: unwind
)

type smProcess struct {
	id        types.ProcessID
	proto     Protocol
	input     types.Value
	rng       *prng.Source
	decided   bool
	decision  types.Value
	decidedAt int
	crashed   bool
	byz       bool
	ops       int

	// live: started or about to be, not crashed, Protocol.Run not returned.
	// Whenever the scheduler is consulted every live process has a request
	// posted in the slot below.
	live bool

	// The posted request and, once granted, its result (value and ok of a
	// read; halt for a crash or the end of the run). The process writes the
	// slot before it gives up the turn, the turn holder that grants it
	// writes the result before it sends on wake.
	kind  opKind
	key   regKey
	value types.Payload
	ok    bool
	halt  bool
	wake  chan struct{}
}

// smAPI adapts a process to the API interface. Everything here runs on the
// process's own goroutine while it is the only one running, so Decide and
// the accessors need no synchronization.
type smAPI struct {
	p  *smProcess
	rt *smRuntime
}

var _ API = (*smAPI)(nil)

func (a *smAPI) ID() types.ProcessID { return a.p.id }
func (a *smAPI) N() int              { return a.rt.n }
func (a *smAPI) T() int              { return a.rt.t }
func (a *smAPI) K() int              { return a.rt.k }
func (a *smAPI) Input() types.Value  { return a.p.input }
func (a *smAPI) Rand() *prng.Source  { return a.p.rng }
func (a *smAPI) HasDecided() bool    { return a.p.decided }

func (a *smAPI) Write(reg string, p types.Payload) {
	a.p.value = p
	a.op(opWrite, regKey{owner: a.p.id, name: reg})
}

func (a *smAPI) Read(owner types.ProcessID, reg string) (types.Payload, bool) {
	a.op(opRead, regKey{owner: owner, name: reg})
	return a.p.value, a.p.ok
}

func (a *smAPI) WriteValue(reg string, v types.Value) {
	a.Write(reg, types.Payload{Kind: types.KindInput, Value: v})
}

func (a *smAPI) ReadValue(owner types.ProcessID, reg string) (types.Value, bool) {
	p, ok := a.Read(owner, reg)
	return p.Value, ok
}

func (a *smAPI) Decide(v types.Value) {
	// Deciding is a local action: the decision board picks it up when the
	// process posts its next request or returns, so the scheduler sees it
	// before granting anything else.
	p := a.p
	if p.decided {
		if !p.byz {
			a.rt.recordBug(fmt.Errorf("%w: %s decided %d after deciding %d",
				ErrDoubleDecide, p.id, v, p.decision))
		}
		return
	}
	p.decided = true
	p.decision = v
}

// op posts a request and returns once it has been granted; a crash or the
// end of the run unwinds the goroutine via panic(haltSignal{}) instead.
func (a *smAPI) op(kind opKind, key regKey) {
	p := a.p
	p.kind, p.key = kind, key
	switch a.rt.yield(p) {
	case turnAway:
		<-p.wake
		if p.halt {
			panic(haltSignal{})
		}
	case turnOver:
		panic(haltSignal{})
	}
}

// smRuntime is one run. Past newRuntime every field, and every smProcess,
// belongs to whichever goroutine holds the turn.
type smRuntime struct {
	cfg     Config
	n, t, k int
	procs   []*smProcess
	regs    map[regKey]types.Payload
	view    View
	rng     *prng.Source
	budget  int
	sched   Scheduler

	// pending lists the live processes in ascending id order: the
	// scheduler's candidates. An id leaves on exit or crash only.
	pending []types.ProcessID
	started int // processes launched so far; the schedule begins at n

	// faults counts crashed and Byzantine processes; undecided counts the
	// correct ones the decision board does not show yet. Both stand in for
	// walks over procs on every grant.
	faults, undecided int

	handoffs int // granted operations that moved the turn to another goroutine

	wg  sync.WaitGroup
	err error

	budgetExhausted bool
}

func (rt *smRuntime) recordBug(err error) {
	if rt.err == nil {
		rt.err = err
	}
}

// Run executes one shared-memory run to completion (all correct processes
// decided, quiescence, or budget exhaustion) and returns its record. All
// process goroutines have exited by the time Run returns.
func Run(cfg Config) (*types.RunRecord, error) {
	if err := validate(&cfg); err != nil {
		return nil, err
	}
	rt := newRuntime(cfg)
	rt.run()
	if rt.err != nil {
		return nil, rt.err
	}
	return rt.record(), nil
}

func validate(cfg *Config) error {
	if cfg.N <= 0 {
		return fmt.Errorf("%w: n=%d", ErrBadConfig, cfg.N)
	}
	if len(cfg.Inputs) != cfg.N {
		return fmt.Errorf("%w: %d inputs for n=%d", ErrBadConfig, len(cfg.Inputs), cfg.N)
	}
	if cfg.T < 0 || cfg.K <= 0 {
		return fmt.Errorf("%w: t=%d k=%d", ErrBadConfig, cfg.T, cfg.K)
	}
	if cfg.NewProtocol == nil {
		return fmt.Errorf("%w: NewProtocol is nil", ErrBadConfig)
	}
	if len(cfg.Byzantine) > cfg.T {
		return fmt.Errorf("%w: %d Byzantine processes exceed t=%d",
			ErrFaultBudget, len(cfg.Byzantine), cfg.T)
	}
	// Report the smallest offending id so the error is independent of map
	// iteration order.
	bad, found := types.ProcessID(0), false
	for id := range cfg.Byzantine {
		if int(id) < 0 || int(id) >= cfg.N {
			if !found || id < bad {
				bad, found = id, true
			}
		}
	}
	if found {
		return fmt.Errorf("%w: Byzantine id %d out of range", ErrBadConfig, bad)
	}
	return nil
}

func newRuntime(cfg Config) *smRuntime {
	n := cfg.N
	rt := &smRuntime{
		cfg: cfg,
		n:   n, t: cfg.T, k: cfg.K,
		regs:   make(map[regKey]types.Payload, 4*n),
		rng:    prng.New(cfg.Seed),
		budget: cfg.MaxOps,
		sched:  cfg.Scheduler,

		pending:   make([]types.ProcessID, n),
		faults:    len(cfg.Byzantine),
		undecided: n - len(cfg.Byzantine),
	}
	if rt.budget == 0 {
		rt.budget = DefaultOpBudgetFactor*n*n + n
	}
	if rt.sched == nil {
		rt.sched = FairRandom{}
	}
	rt.view = View{
		N: n, T: cfg.T, K: cfg.K,
		Decided: make([]bool, n),
		Crashed: make([]bool, n),
		Faulty:  make([]bool, n),
	}
	rt.procs = make([]*smProcess, n)
	for i := 0; i < n; i++ {
		id := types.ProcessID(i)
		p := &smProcess{
			id:    id,
			input: cfg.Inputs[i],
			rng:   rt.rng.Split(),
			live:  true,
			wake:  make(chan struct{}, 1),
		}
		if strat, ok := cfg.Byzantine[id]; ok {
			p.proto = strat
			p.byz = true
			rt.view.Faulty[i] = true
		} else {
			p.proto = cfg.NewProtocol(id)
		}
		rt.procs[i] = p
		rt.pending[i] = id
	}
	return rt
}

func (rt *smRuntime) trace(ev TraceEvent) {
	if rt.cfg.Trace != nil {
		ev.OpIndex = rt.view.Ops
		rt.cfg.Trace(ev)
	}
}

// run launches process 0 and waits until every process goroutine has
// returned or been unwound; the processes schedule each other in between.
func (rt *smRuntime) run() {
	rt.wg.Add(rt.n)
	rt.started = 1
	go rt.runProcess(rt.procs[0])
	rt.wg.Wait()

	for _, p := range rt.procs {
		if p.decided {
			rt.trace(TraceEvent{Type: EvDecide, Proc: p.id, Value: p.decision})
		}
	}
}

// runProcess is the body of one process goroutine.
func (rt *smRuntime) runProcess(p *smProcess) {
	defer rt.wg.Done()
	defer func() {
		r := recover()
		if r == nil {
			// Protocol.Run returned normally: this process is gone, and its
			// last act is to pass the turn on.
			rt.drop(p)
			rt.yield(p)
			return
		}
		if _, ok := r.(haltSignal); ok {
			// Unwound by the runtime (halt or crash), which already
			// accounts for this process.
			return
		}
		panic(r) // real bug: propagate
	}()
	p.proto.Run(&smAPI{p: p, rt: rt})
}

// refresh copies p's decision onto the decision board. A decision becomes
// visible when the process posts its next request or returns; the operation
// count at that moment is the decision's latency.
func (rt *smRuntime) refresh(p *smProcess) {
	if !p.decided || rt.view.Decided[p.id] {
		return
	}
	p.decidedAt = rt.view.Ops
	rt.view.Decided[p.id] = true
	if !p.byz && !p.crashed {
		rt.undecided--
	}
}

// drop takes p out of the scheduler's candidates: it returned or crashed.
func (rt *smRuntime) drop(p *smProcess) {
	p.live = false
	for i, id := range rt.pending {
		if id == p.id {
			rt.pending = append(rt.pending[:i], rt.pending[i+1:]...)
			return
		}
	}
}

// haltAll ends the run: every process still waiting for a grant is unwound.
// Halts commute: a halted goroutine touches no shared state on its way out,
// so wakeup order cannot affect the run. self is unwound by its caller.
func (rt *smRuntime) haltAll(self *smProcess) turn {
	for _, id := range rt.pending {
		if p := rt.procs[id]; p != self {
			p.halt = true
			p.wake <- struct{}{}
		}
	}
	return turnOver
}

// yield is called by the running process once its next request is posted, or
// once it has returned. During start-up that launches the next process, so
// the processes reach their first request one at a time in id order; after
// it, self holds the turn and runs the schedule.
func (rt *smRuntime) yield(self *smProcess) turn {
	rt.refresh(self)
	if rt.started < rt.n {
		next := rt.procs[rt.started]
		rt.started++
		go rt.runProcess(next)
		return turnAway
	}
	return rt.drive(self)
}

// drive grants operations for as long as the turn stays with self: until the
// scheduler picks a process other than self (that process is woken with its
// result and self parks or, having returned or crashed, leaves), picks self
// itself (self carries on without a goroutine switch), or the run ends.
// Grants are allocation-free: the candidates are kept across grants and the
// request and result travel in the process's own slot.
func (rt *smRuntime) drive(self *smProcess) turn {
	away := turnAway
	for {
		switch {
		case rt.err != nil, rt.undecided == 0:
			return rt.haltAll(self)
		case len(rt.pending) == 0:
			// Every process exited or crashed without full decision:
			// quiescent. The checker will flag termination if violated.
			return turnOver
		case rt.view.Ops >= rt.budget:
			rt.budgetExhausted = true
			return rt.haltAll(self)
		}

		pid := rt.sched.Next(&rt.view, rt.pending, rt.rng)
		if int(pid) < 0 || int(pid) >= rt.n || !rt.procs[pid].live {
			rt.recordBug(fmt.Errorf("%w: %v", ErrBadSchedule, pid))
			return rt.haltAll(self)
		}
		if r := rt.cfg.Recorder; r != nil {
			r.Grant(pid)
		}
		p := rt.procs[pid]

		if adv := rt.cfg.Crash; adv != nil && !p.byz && rt.faults < rt.t &&
			adv.CrashBeforeOp(&rt.view, pid, p.ops) {
			if r := rt.cfg.Recorder; r != nil {
				r.CrashAtOp(pid, p.ops)
			}
			p.crashed = true
			rt.faults++
			if !rt.view.Decided[pid] {
				rt.undecided--
			}
			rt.view.Crashed[pid] = true
			rt.view.Faulty[pid] = true
			rt.trace(TraceEvent{Type: EvCrash, Proc: pid})
			rt.drop(p)
			if p == self {
				// Nobody else can take the turn from a crashed process:
				// keep driving, unwind once it has moved on.
				away = turnOver
			} else {
				p.halt = true
				p.wake <- struct{}{}
			}
			continue
		}

		rt.view.Ops++
		p.ops++
		switch p.kind {
		case opRead:
			p.value, p.ok = rt.regs[p.key]
			rt.trace(TraceEvent{Type: EvRead, Proc: pid, Owner: p.key.owner,
				Register: p.key.name, Payload: p.value, Present: p.ok})
		case opWrite:
			rt.regs[p.key] = p.value
			rt.trace(TraceEvent{Type: EvWrite, Proc: pid, Owner: p.key.owner,
				Register: p.key.name, Payload: p.value, Present: true})
		}
		if p == self {
			return turnMine
		}
		rt.handoffs++
		p.wake <- struct{}{}
		return away
	}
}

func (rt *smRuntime) record() *types.RunRecord {
	mode := types.Crash
	if len(rt.cfg.Byzantine) > 0 {
		mode = types.Byzantine
	}
	rec := &types.RunRecord{
		N: rt.n, T: rt.t, K: rt.k,
		Model:           types.Model{Comm: types.SharedMemory, Failure: mode},
		Inputs:          append([]types.Value(nil), rt.cfg.Inputs...),
		Faulty:          append([]bool(nil), rt.view.Faulty...),
		Decided:         make([]bool, rt.n),
		Decisions:       make([]types.Value, rt.n),
		Events:          rt.view.Ops,
		Seed:            rt.cfg.Seed,
		BudgetExhausted: rt.budgetExhausted,
	}
	rec.DecidedAtEvent = make([]int, rt.n)
	for i, p := range rt.procs {
		rec.Decided[i] = p.decided
		rec.Decisions[i] = p.decision
		if p.decided {
			rec.DecidedAtEvent[i] = p.decidedAt
		} else {
			rec.DecidedAtEvent[i] = -1
		}
	}
	return rec
}
