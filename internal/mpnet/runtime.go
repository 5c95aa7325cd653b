package mpnet

import (
	"errors"
	"fmt"

	"kset/internal/prng"
	"kset/internal/types"
)

// DefaultEventBudgetFactor scales the default event budget: budget =
// factor * n * n + n. Every protocol in the paper sends O(n^2) messages
// (O(n^3) for the echo protocols), so the default is generous; runs that
// exhaust it under a fair scheduler have genuinely failed to terminate.
const DefaultEventBudgetFactor = 64

// Config describes one simulated run.
type Config struct {
	N int // number of processes, n >= 1
	T int // declared failure bound
	K int // agreement bound

	// Inputs are the process input values; len(Inputs) must equal N.
	Inputs []types.Value

	// NewProtocol constructs the protocol instance for a correct process.
	NewProtocol func(id types.ProcessID) Protocol

	// Byzantine maps faulty process ids to their strategies. Processes
	// listed here count against the fault budget T and are marked faulty
	// in the run record.
	Byzantine map[types.ProcessID]Protocol

	// Crash injects crash failures at deliveries (types.CrashAtEvent) and
	// transmissions (types.CrashAtSend); nil means no crashes.
	Crash types.CrashAdversary

	// Scheduler chooses delivery order; nil means FairRandom.
	Scheduler Scheduler

	// Seed drives every random choice in the run.
	Seed uint64

	// MaxEvents caps deliveries; 0 selects the default budget.
	MaxEvents int

	// HaltOnDecide makes every correct process stop executing after the
	// step in which it decides — the "terminating protocol" semantics the
	// paper's conclusion leaves open for the Byzantine setting. Messages
	// addressed to a halted process are consumed without effect. Protocols
	// that rely on deciders continuing to help (the echo-based Protocols
	// C(l) and D) lose termination under this mode; see the harness's
	// halting experiments.
	HaltOnDecide bool

	// Trace, if non-nil, observes every event (sends, deliveries, crashes,
	// decisions).
	Trace func(TraceEvent)
}

// Errors reported by Run for misconfigured or buggy setups (as opposed to
// condition violations, which are the checker's concern).
var (
	ErrBadConfig      = errors.New("mpnet: invalid configuration")
	ErrDoubleDecide   = errors.New("mpnet: correct process decided twice")
	ErrFaultBudget    = errors.New("mpnet: adversary exceeded fault budget")
	ErrBadSchedule    = errors.New("mpnet: scheduler returned invalid index")
	ErrBadDestination = errors.New("mpnet: send to invalid process id")
)

type process struct {
	id        types.ProcessID
	proto     Protocol
	input     types.Value
	rng       prng.Source // split from the run's stream in place, see reset
	decided   bool
	decision  types.Value
	decidedAt int
	crashed   bool
	byz       bool
	events    int // deliveries processed (Start included)
	sends     int // transmissions performed
	// selfQueue holds payloads this process sent to itself; they are
	// delivered immediately after the current handler returns. The backing
	// array is reused across drains, and across a Runner's runs.
	selfQueue []types.Payload
	// a is the process's API adapter, built once at runtime setup so the hot
	// dispatch path never allocates one per delivery.
	a api
}

type runtime struct {
	cfg     Config
	n, t, k int
	procs   []process
	pool    Pool
	view    View
	rng     prng.Source
	budget  int
	sched   Scheduler
	err     error // first protocol/config bug detected mid-run

	// faults counts crashed plus Byzantine processes; undecided counts the
	// correct (neither) processes that have not decided. Decide and crash
	// move them, so the per-event checks do not walk the processes.
	faults    int
	undecided int

	// compactNeeded is set when a crash may have left in-flight messages
	// addressed to a dead process; compact() scans only then.
	compactNeeded   bool
	budgetExhausted bool

	// rec is the record of the last run, refilled by every run.
	rec types.RunRecord
}

// api adapts a process to the API interface.
type api struct {
	rt *runtime
	p  *process
}

var _ API = (*api)(nil)

func (a *api) ID() types.ProcessID { return a.p.id }
func (a *api) N() int              { return a.rt.n }
func (a *api) T() int              { return a.rt.t }
func (a *api) K() int              { return a.rt.k }
func (a *api) Input() types.Value  { return a.p.input }
func (a *api) HasDecided() bool    { return a.p.decided }
func (a *api) Rand() *prng.Source  { return &a.p.rng }

func (a *api) Send(to types.ProcessID, p types.Payload) {
	a.rt.send(a.p, to, p)
}

func (a *api) Broadcast(p types.Payload) {
	for to := 0; to < a.rt.n; to++ {
		if a.p.crashed {
			return // crashed mid-broadcast
		}
		a.rt.send(a.p, types.ProcessID(to), p)
	}
}

func (a *api) Decide(v types.Value) {
	p := a.p
	if p.decided {
		if !p.byz && !p.crashed && a.rt.err == nil {
			a.rt.err = fmt.Errorf("%w: %s decided %d after deciding %d",
				ErrDoubleDecide, p.id, v, p.decision)
		}
		return
	}
	p.decided = true
	p.decision = v
	p.decidedAt = a.rt.view.Events
	if !p.byz && !p.crashed {
		a.rt.undecided--
	}
	a.rt.view.Decided[p.id] = true
	a.rt.view.Changes++
	a.rt.trace(TraceEvent{Type: EvDecide, Proc: p.id, Value: v})
}

// Run executes one simulated run to quiescence, event-budget exhaustion, or
// all-correct-decided, and returns the run record, which is the caller's.
// The returned error reports configuration or protocol bugs, never
// consensus-condition violations.
func Run(cfg Config) (*types.RunRecord, error) {
	rec, err := new(Runner).Run(cfg)
	if err != nil {
		return nil, err
	}
	// The record's header moves out of the Runner, which then is garbage:
	// a record kept does not keep the run's processes and pool.
	owned := *rec
	return &owned, nil
}

// Runner executes runs one after another on one arena: the process table
// with every process's generator, the view's slices, the in-flight pool with
// its index and marks, every process's self-delivery queue and the run
// record keep their arrays from one Run to the next, so a sweep's later runs
// grow nothing the earlier ones already grew. The View is the same value in
// every run; its Changes count goes on growing across them, and its Run
// numbers them. A run on a used Runner is the run a fresh one would make —
// same picks, same crashes, same record and Trace stream — whatever ran
// before it and however that ended. The RunRecord a Run returns is the
// arena's: it is valid until the next Run, which overwrites it, and a caller
// that keeps it longer keeps a Clone.
//
// The zero value is ready to use. A Runner is not safe for concurrent use
// and must not be copied after its first Run; it keeps the last Config (and
// so the last run's protocol instances) reachable until the next Run.
type Runner struct {
	rt runtime
}

// Run is the package-level Run on this Runner's arena.
func (r *Runner) Run(cfg Config) (*types.RunRecord, error) {
	if err := validate(&cfg); err != nil {
		return nil, err
	}
	rt := &r.rt
	rt.reset(cfg)
	if err := rt.run(); err != nil {
		return nil, err
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
	if cfg.MaxEvents < 0 {
		return fmt.Errorf("%w: MaxEvents=%d", ErrBadConfig, cfg.MaxEvents)
	}
	if cfg.NewProtocol == nil {
		return fmt.Errorf("%w: NewProtocol is nil", ErrBadConfig)
	}
	if len(cfg.Byzantine) > cfg.T {
		return fmt.Errorf("%w: %d Byzantine processes exceed t=%d",
			ErrFaultBudget, len(cfg.Byzantine), cfg.T)
	}
	if bad, found := types.SmallestBadID(cfg.Byzantine, cfg.N); found {
		return fmt.Errorf("%w: Byzantine id %d out of range or without a strategy", ErrBadConfig, bad)
	}
	return nil
}

// reset readies the runtime for one run of cfg, keeping every array a
// previous run left behind that is large enough.
func (rt *runtime) reset(cfg Config) {
	n := cfg.N
	procs := rt.procs
	*rt = runtime{
		cfg: cfg,
		n:   n, t: cfg.T, k: cfg.K,
		budget: cfg.MaxEvents,
		sched:  cfg.Scheduler,
		pool:   rt.pool,
		rec:    rt.rec,
		view: View{
			N: n, T: cfg.T, K: cfg.K,
			Decided: cleared(rt.view.Decided, n),
			Crashed: cleared(rt.view.Crashed, n),
			Faulty:  cleared(rt.view.Faulty, n),
			// A new run is a change: a scheduler that kept something per
			// process from the last run must work it out again.
			Changes: rt.view.Changes + 1,
			Run:     rt.view.Run + 1,
		},
	}
	rt.rng.Reset(cfg.Seed)
	if rt.budget == 0 {
		rt.budget = DefaultEventBudgetFactor*n*n + n
	}
	if rt.sched == nil {
		rt.sched = FairRandom{}
	}
	if cap(procs) < n {
		// The old entries move over for the sake of their self queues.
		procs = append(make([]process, 0, n), procs[:cap(procs)]...)
	}
	rt.procs = procs[:n]
	for i := range rt.procs {
		id := types.ProcessID(i)
		p := &rt.procs[i]
		*p = process{
			id:        id,
			input:     cfg.Inputs[i],
			selfQueue: p.selfQueue[:0],
		}
		p.rng.Reset(rt.rng.Uint64())
		if strat, ok := cfg.Byzantine[id]; ok {
			p.proto = strat
			p.byz = true
			rt.view.Faulty[i] = true
			rt.faults++
		} else {
			p.proto = cfg.NewProtocol(id)
			rt.undecided++
		}
		p.a = api{rt: rt, p: p}
	}
	rt.pool.reset(n)
}

// cleared returns s with length n and every element false, on s's array when
// it is large enough.
func cleared(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

// trace reports ev to Config.Trace when it is set. The per-message paths
// (send, delivery) test Trace themselves, so an untraced run does not build
// their events.
func (rt *runtime) trace(ev TraceEvent) {
	if rt.cfg.Trace != nil {
		ev.EventIndex = rt.view.Events
		rt.cfg.Trace(ev)
	}
}

// crashes asks the crash adversary whether p, which has not crashed, crashes
// at this site, where p's kind counter reads index. A Byzantine process
// (already faulty) and a spent fault budget are never asked about.
func (rt *runtime) crashes(p *process, kind types.CrashKind, index int) bool {
	adv := rt.cfg.Crash
	return adv != nil && !p.byz && rt.faults < rt.t && adv.Crash(p.id, kind, index)
}

func (rt *runtime) crash(p *process) {
	p.crashed = true
	rt.faults++
	if !p.decided {
		rt.undecided--
	}
	rt.view.Crashed[p.id] = true
	rt.view.Faulty[p.id] = true
	rt.view.Changes++
	// Messages already in flight from p stay in flight: they were handed to
	// the network before the crash. Messages addressed to p will be
	// discarded at delivery.
	rt.compactNeeded = true
	rt.trace(TraceEvent{Type: EvCrash, Proc: p.id})
}

func (rt *runtime) send(from *process, to types.ProcessID, payload types.Payload) {
	if from.crashed {
		return
	}
	if int(to) < 0 || int(to) >= rt.n {
		if rt.err == nil {
			rt.err = fmt.Errorf("%w: %s sent to %d", ErrBadDestination, from.id, to)
		}
		return
	}
	if rt.crashes(from, types.CrashAtSend, from.sends) {
		rt.crash(from)
		return
	}
	from.sends++
	rt.view.Messages++
	if rt.cfg.Trace != nil {
		rt.trace(TraceEvent{Type: EvSend, Proc: from.id, Peer: to, Payload: payload})
	}
	if to == from.id {
		from.selfQueue = append(from.selfQueue, payload)
		return
	}
	rt.pool.add(Envelope{From: from.id, To: to, Payload: payload})
}

// drainSelf delivers the payloads a process sent to itself during the handler
// that just returned, so a process hears its own broadcasts immediately but
// without handler reentrancy. Handlers may enqueue more self-sends while
// draining; the index walk picks those up too, and the backing array is
// truncated (not resliced away) so the next handler reuses it.
func (rt *runtime) drainSelf(p *process) {
	a := &p.a
	for qi := 0; qi < len(p.selfQueue) && !p.crashed && !rt.halted(p); qi++ {
		payload := p.selfQueue[qi]
		if rt.cfg.Trace != nil {
			rt.trace(TraceEvent{Type: EvDeliver, Proc: p.id, Peer: p.id, Payload: payload})
		}
		p.proto.Deliver(a, p.id, payload)
	}
	// Leftovers (crash or halt mid-drain) are droppable: a crashed or halted
	// process never runs a handler again.
	p.selfQueue = p.selfQueue[:0]
}

// halted reports whether a process has stopped for good under the
// terminating-protocol semantics: it decided and HaltOnDecide is set.
// Byzantine processes never halt (they are under adversary control).
func (rt *runtime) halted(p *process) bool {
	return rt.cfg.HaltOnDecide && p.decided && !p.byz
}

func (rt *runtime) run() error {
	// Start phase. The crash adversary may prevent a process from ever
	// starting (it executed zero instructions) or crash it mid-broadcast
	// at a transmission.
	for i := range rt.procs {
		p := &rt.procs[i]
		if rt.crashes(p, types.CrashAtEvent, p.events) {
			rt.crash(p)
			continue
		}
		p.events++
		p.proto.Start(&p.a)
		rt.drainSelf(p)
		if rt.err != nil {
			return rt.err
		}
	}

	budgetExhausted := false
	for rt.undecided > 0 {
		// Discard in-flight messages addressed to crashed processes; they
		// can never be processed and would otherwise distort scheduling.
		rt.compact()
		if rt.pool.Len() == 0 {
			// Quiescent with undecided correct processes: nothing can ever
			// change in an event-driven system. The checker will flag the
			// termination violation.
			break
		}
		if rt.view.Events >= rt.budget {
			budgetExhausted = true
			break
		}
		idx := rt.sched.Next(&rt.view, &rt.pool, &rt.rng)
		if idx < 0 || idx >= rt.pool.Len() {
			return fmt.Errorf("%w: %d of %d", ErrBadSchedule, idx, rt.pool.Len())
		}
		env := rt.pool.env[idx]
		rt.pool.remove(idx)

		p := &rt.procs[env.To]
		if p.crashed || rt.halted(p) {
			continue
		}
		if rt.crashes(p, types.CrashAtEvent, p.events) {
			rt.crash(p)
			continue
		}
		rt.view.Events++
		p.events++
		if rt.cfg.Trace != nil {
			rt.trace(TraceEvent{Type: EvDeliver, Proc: env.To, Peer: env.From, Payload: env.Payload})
		}
		p.proto.Deliver(&p.a, env.From, env.Payload)
		rt.drainSelf(p)
		if rt.err != nil {
			return rt.err
		}
	}

	rt.viewBudget(budgetExhausted)
	return nil
}

func (rt *runtime) viewBudget(exhausted bool) {
	if exhausted {
		rt.trace(TraceEvent{Type: EvBudget})
	}
	rt.budgetExhausted = exhausted
}

// compact removes in-flight messages whose recipients have crashed. It only
// scans when a crash occurred since the last scan.
func (rt *runtime) compact() {
	if !rt.compactNeeded {
		return
	}
	rt.compactNeeded = false
	rt.pool.discardTo(rt.view.Crashed)
}

// record fills the arena's record in with the run that just ended.
func (rt *runtime) record() *types.RunRecord {
	rec := &rt.rec
	rec.Reset(rt.cfg.Inputs, rt.view.Faulty)
	rec.T, rec.K = rt.t, rt.k
	rec.Model = types.Model{Comm: types.MessagePassing, Failure: rt.failureMode()}
	rec.Events, rec.Messages = rt.view.Events, rt.view.Messages
	rec.Seed, rec.BudgetExhausted = rt.cfg.Seed, rt.budgetExhausted
	for i := range rt.procs {
		p := &rt.procs[i]
		rec.Decided[i], rec.Decisions[i], rec.DecidedAtEvent[i] = p.decided, p.decision, -1
		if p.decided {
			rec.DecidedAtEvent[i] = p.decidedAt
		}
	}
	return rec
}

func (rt *runtime) failureMode() types.FailureMode {
	if len(rt.cfg.Byzantine) > 0 {
		return types.Byzantine
	}
	return types.Crash
}
