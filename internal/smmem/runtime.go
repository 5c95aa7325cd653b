// The runtime below is one loop on the goroutine that called Run. A process
// is a step machine (see Protocol): its code runs only inside a step — its
// Start, the handler of a poll's hit or the visitor of a scan's read, or a
// call's then — and every step runs on the loop's own stack. A step's writes
// wait in the process's queue until it returns; proceed, the one path after
// every step and every granted write, then posts them one by one, and after
// the last the call's next read, or, once the call is over, runs its then.
// A poll read that misses runs no process code: the loop posts the poll's
// next register itself. Nothing is ever runnable beside the loop — no
// goroutine is started, no channel, lock or wait group is used — so
// registers, scheduler state, the view and the request slots need no
// synchronization, the schedule is a pure function of the seed, and
// Scheduler.Next, CrashAdversary.CrashBeforeOp, Config.Trace, the Recorder
// and every step are always called on Run's goroutine.

package smmem

import (
	"errors"
	"fmt"
	"strings"

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

// opKind enumerates the register operations a process can post, and its
// calls: a poll's read is opPoll, a scan's opScan.
type opKind uint8

const (
	opWrite opKind = iota + 1
	opPoll
	opScan
)

// queuedWrite is a write a step made, posted once the step returns.
type queuedWrite struct {
	reg   Reg
	value types.Payload
}

type smProcess struct {
	id        types.ProcessID
	proto     Protocol
	input     types.Value
	rng       prng.Source // split from the run's stream in place, see reset
	decided   bool
	decision  types.Value
	decidedAt int
	crashed   bool
	byz       bool
	ops       int

	// live: not crashed, not returned. Whenever the scheduler is consulted
	// every live process has a request posted in the slot below.
	live bool

	// The posted request (kind, register, value of a write) and, once
	// granted, the result of a read. A write's register is the process's
	// own, a poll's or a scan's read is posted from regs[at].
	kind  opKind
	reg   Reg
	value types.Payload
	ok    bool

	// names holds what the last two Names the process's operations looked
	// up resolved to, kept across calls and runs. An operation whose Name is
	// one of them — SIMULATION's bc/ and msg/<me>/, E's and F's input —
	// costs a string comparison, pointer-equal as a rule, and no lookup.
	names [2]resolved

	// The call in progress (call is opPoll or opScan, 0 for none): its
	// registers, the index of the one posted, the handler of a poll's hits
	// or the visitor of a scan's reads, and then, the step after it. over is
	// set once the call has had its last read. The steps' writes wait in
	// queue; queued counts those already posted. missed counts the poll's
	// reads in a row that found nothing while the runtime's write count
	// stood at writes: once it reaches len(regs), every register of the
	// list is unwritten until the next write anywhere.
	call   opKind
	regs   []Reg
	at     int
	hit    func(int, types.Payload) bool
	visit  func(int, types.Payload, bool)
	then   func()
	over   bool
	queue  []queuedWrite
	queued int
	missed int
	writes int

	api smAPI // what the protocol's steps are handed
}

// resolved is a Name, the number of its family and whether the Name ends
// in '/', so takes an Index; the zero value, family 0, is no Name.
type resolved struct {
	name    string
	fam     int
	indexed bool
}

// smAPI adapts a process to the API interface. Every step runs on the
// loop's stack, so Decide and the accessors need no synchronization.
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
func (a *smAPI) Rand() *prng.Source  { return &a.p.rng }
func (a *smAPI) HasDecided() bool    { return a.p.decided }

func (a *smAPI) Write(name string, index int, p types.Payload) {
	a.p.queue = append(a.p.queue, queuedWrite{Reg{a.p.id, name, index}, p})
}

func (a *smAPI) WriteValue(name string, index int, v types.Value) {
	a.Write(name, index, types.Payload{Kind: types.KindInput, Value: v})
}

func (a *smAPI) Poll(start int, regs []Reg, hit func(i int, p types.Payload) bool, then func()) {
	if start < 0 || start >= len(regs) {
		panic(fmt.Sprintf("smmem: Poll from index %d of %d registers", start, len(regs)))
	}
	p := a.post(opPoll, regs, then)
	p.at, p.hit, p.missed = start, hit, 0
}

func (a *smAPI) Scan(regs []Reg, visit func(i int, p types.Payload, ok bool), then func()) {
	p := a.post(opScan, regs, then)
	p.visit, p.over = visit, len(regs) == 0
}

// opNames names the calls for the panic of one posted while another is in
// progress.
var opNames = [...]string{opPoll: "Poll", opScan: "Scan"}

// post makes a poll or a scan of regs, followed by then, the process's call
// in progress. A process has at most one: a second call in one step, or a
// call in a hit or a visitor, panics.
func (a *smAPI) post(kind opKind, regs []Reg, then func()) *smProcess {
	p := a.p
	if p.call != 0 {
		panic("smmem: " + opNames[kind] + " while a " + opNames[p.call] + " is in progress")
	}
	p.call, p.regs, p.at, p.then, p.over = kind, regs, 0, then, false
	return p
}

func (a *smAPI) Decide(v types.Value) {
	// Deciding is a local action: the decision board picks it up when the
	// step that made it returns, before the step's writes, so the scheduler
	// sees it before granting anything else.
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

// smRuntime is one run.
type smRuntime struct {
	cfg     Config
	n, t, k int
	procs   []smProcess // one allocation; the runtime keeps pointers into it
	view    View        // one value for every run of the Runner, told apart by View.Run
	flags   []bool      // the view's Decided, Crashed and Faulty, in one array
	rng     prng.Source
	budget  int
	sched   Scheduler

	mem memory

	// pending lists the live processes in ascending id order: the
	// scheduler's candidates. An id leaves on exit or crash only.
	pending []types.ProcessID

	// faults counts crashed and Byzantine processes; undecided counts the
	// correct ones the decision board does not show yet. Both stand in for
	// walks over procs on every grant.
	faults, undecided int

	err error

	budgetExhausted bool

	// rec is the record of the last run, refilled by every run.
	rec types.RunRecord
}

func (rt *smRuntime) recordBug(err error) {
	if rt.err == nil {
		rt.err = err
	}
}

// Run executes one shared-memory run to completion (all correct processes
// decided, quiescence, or budget exhaustion) and returns its record, which
// is the caller's. A panic out of protocol code reaches Run's caller.
func Run(cfg Config) (*types.RunRecord, error) {
	rec, err := new(Runner).Run(cfg)
	if err != nil {
		return nil, err
	}
	// The record's header moves out of the Runner, which then is garbage:
	// a record kept does not keep the run's processes and registers.
	owned := *rec
	return &owned, nil
}

// Runner executes runs one after another on one arena: the process table
// with every process's write queue and resolved Names, the candidate list,
// the view's slices, the register store's family table and slices and the
// run record keep their memory from one Run to the next, so a sweep's later
// runs grow nothing the earlier ones already grew. The View is the same
// value in every run, and its Run field numbers the runs: Hold and Starve
// tell runs apart by it. A run on a used Runner is the run a fresh one would
// make — same schedule, same record, same Recorder and Trace streams —
// whatever ran before it and however that ended, a panic included. The
// RunRecord a Run returns is the arena's: it is valid until the next Run,
// which overwrites it, and a caller that keeps it longer keeps a Clone.
//
// The zero value is ready to use. A Runner is not safe for concurrent use
// and must not be copied after its first Run; it keeps the last Config (and
// so the last run's protocol instances) reachable until the next Run.
type Runner struct {
	rt smRuntime
}

// Run is the package-level Run on this Runner's arena.
func (r *Runner) Run(cfg Config) (*types.RunRecord, error) {
	if err := validate(&cfg); err != nil {
		return nil, err
	}
	rt := &r.rt
	rt.reset(cfg)
	rt.run()
	for i := range rt.procs {
		if p := &rt.procs[i]; p.decided && rt.cfg.Trace != nil {
			rt.trace(TraceEvent{Type: EvDecide, Proc: p.id, Value: p.decision})
		}
	}
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
	if cfg.MaxOps < 0 {
		return fmt.Errorf("%w: MaxOps=%d", ErrBadConfig, cfg.MaxOps)
	}
	if cfg.NewProtocol == nil {
		return fmt.Errorf("%w: NewProtocol is nil", ErrBadConfig)
	}
	if len(cfg.Byzantine) > cfg.T {
		return fmt.Errorf("%w: %d Byzantine processes exceed t=%d",
			ErrFaultBudget, len(cfg.Byzantine), cfg.T)
	}
	if bad, found := types.SmallestID(cfg.Byzantine, func(id types.ProcessID, strat Protocol) bool {
		return int(id) < 0 || int(id) >= cfg.N || strat == nil
	}); found {
		return fmt.Errorf("%w: Byzantine id %d out of range or without a strategy", ErrBadConfig, bad)
	}
	return nil
}

// reset makes rt the start of the run cfg describes, on the memory of the
// runs before it.
func (rt *smRuntime) reset(cfg Config) {
	n := cfg.N
	procs, pending, mem := rt.procs, rt.pending[:0], rt.mem
	flags := rt.flags
	if cap(flags) < 3*n {
		flags = make([]bool, 3*n)
	}
	flags = flags[:3*n]
	clear(flags)
	*rt = smRuntime{
		cfg: cfg,
		n:   n, t: cfg.T, k: cfg.K,
		budget: cfg.MaxOps,
		sched:  cfg.Scheduler,
		mem:    mem,
		flags:  flags,
		rec:    rt.rec,
		view: View{
			N: n, T: cfg.T, K: cfg.K,
			Decided: flags[:n:n],
			Crashed: flags[n : 2*n : 2*n],
			Faulty:  flags[2*n:],
			Run:     rt.view.Run + 1,
		},

		faults:    len(cfg.Byzantine),
		undecided: n - len(cfg.Byzantine),
	}
	rt.rng.Reset(cfg.Seed)
	if rt.budget == 0 {
		rt.budget = DefaultOpBudgetFactor*n*n + n
	}
	if rt.sched == nil {
		rt.sched = FairRandom{}
	}
	rt.mem.reset(n)
	if cap(procs) < n {
		// The old entries move over for the sake of their queues and Names.
		procs = append(make([]smProcess, 0, n), procs[:cap(procs)]...)
	}
	rt.procs = procs[:n]
	for i := range rt.procs {
		id := types.ProcessID(i)
		p := &rt.procs[i]
		*p = smProcess{
			id: id, input: cfg.Inputs[i], live: true,
			queue: p.queue[:0], names: p.names,
		}
		p.rng.Reset(rt.rng.Uint64())
		p.api = smAPI{p: p, rt: rt}
		if strat, ok := cfg.Byzantine[id]; ok {
			p.proto = strat
			p.byz = true
			rt.view.Faulty[i] = true
		} else {
			p.proto = cfg.NewProtocol(id)
		}
		pending = append(pending, id)
	}
	rt.pending = pending
}

// trace reports ev to Config.Trace. The loop calls it only when Trace is
// set, so an untraced run never builds an event or a register's text.
func (rt *smRuntime) trace(ev TraceEvent) {
	ev.OpIndex = rt.view.Ops
	rt.cfg.Trace(ev)
}

// traceOp traces p's granted read or write under its register's text.
func (rt *smRuntime) traceOp(typ TraceEventType, p *smProcess, present bool) {
	rt.trace(TraceEvent{Type: typ, Proc: p.id, Owner: p.reg.Owner,
		Register: regText(p.reg), Payload: p.value, Present: present})
}

// refresh copies p's decision onto the decision board. A decision becomes
// visible when the step that made it returns; the operation count at that
// moment is the decision's latency.
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

// run runs every process's Start in id order, each up to its first request,
// then grants operations until the run ends.
func (rt *smRuntime) run() {
	for i := range rt.procs {
		p := &rt.procs[i]
		p.proto.Start(&p.api)
		rt.proceed(p)
	}
	for rt.grant() {
	}
}

// grant performs one scheduling step — the next granted operation, or the
// crash the adversary puts in its place — and reports whether the run goes
// on. Grants are allocation-free: the candidates are kept across grants and
// the request and result travel in the process's own slot.
func (rt *smRuntime) grant() bool {
	switch {
	case rt.err != nil, rt.undecided == 0:
		return false
	case len(rt.pending) == 0:
		// Every process exited or crashed without full decision:
		// quiescent. The checker will flag termination if violated.
		return false
	case rt.view.Ops >= rt.budget:
		rt.budgetExhausted = true
		return false
	}

	pid := rt.sched.Next(&rt.view, rt.pending, &rt.rng)
	if int(pid) < 0 || int(pid) >= rt.n || !rt.procs[pid].live {
		rt.recordBug(fmt.Errorf("%w: %v", ErrBadSchedule, pid))
		return false
	}
	if r := rt.cfg.Recorder; r != nil {
		r.Grant(pid)
	}
	p := &rt.procs[pid]

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
		if rt.cfg.Trace != nil {
			rt.trace(TraceEvent{Type: EvCrash, Proc: pid})
		}
		rt.drop(p)
		return true
	}

	rt.view.Ops++
	p.ops++
	switch p.kind {
	case opWrite:
		f, i := rt.locate(p)
		rt.mem.write(pid, f, i, p.value)
		if rt.cfg.Trace != nil {
			rt.traceOp(EvWrite, p, true)
		}
		rt.proceed(p)
	case opPoll:
		rt.pollRead(p)
	case opScan:
		rt.scanRead(p)
	}
	return true
}

// locate returns the family and index of the register p's granted request
// names: by the Name cache when the Name is one of the last two p's
// requests looked up, by the family table otherwise. A Name is checked
// before it enters the cache, so an operation that finds it there pays
// nothing for the check.
func (rt *smRuntime) locate(p *smProcess) (fam, i int) {
	name := p.reg.Name
	r := &p.names[0]
	if r.fam == 0 || r.name != name {
		if r = &p.names[1]; r.fam == 0 || r.name != name {
			indexed := name != "" && name[len(name)-1] == '/'
			if !indexed && strings.IndexByte(name, '/') >= 0 {
				panic(fmt.Sprintf("smmem: register %+v: a Name with a / must end in /", p.reg))
			}
			p.names[1] = p.names[0]
			r = &p.names[0]
			*r = resolved{fam: rt.mem.family(name), indexed: indexed}
		}
	}
	// The entry keeps the request's own string, so its next comparison is
	// pointer-equal also after an equal Name was built anew.
	r.name = name
	if i = p.reg.Index; i < 0 || i > 0 && !r.indexed {
		noRegister(p.reg)
	}
	return r.fam, i
}

// noRegister panics for r, which names no register.
func noRegister(r Reg) {
	if r.Index < 0 {
		panic(fmt.Sprintf("smmem: register %+v: negative Index", r))
	}
	panic(fmt.Sprintf("smmem: register %+v: a non-zero Index needs a Name ending in /", r))
}

// read performs p's granted read.
func (rt *smRuntime) read(p *smProcess) {
	f, i := rt.locate(p)
	p.value, p.ok = rt.mem.read(p.reg.Owner, f, i)
}

// pollRead performs p's granted poll read. A miss runs no process code, so
// nothing can have been decided: it posts the poll's next register. A hit
// runs the poll's handler, a step of p, and proceeds from there. A read is
// answered without a lookup once the poll has missed on every register of
// its list since the last write anywhere.
func (rt *smRuntime) pollRead(p *smProcess) {
	if p.writes != rt.mem.writes {
		p.writes, p.missed = rt.mem.writes, 0
	}
	p.value, p.ok = types.Payload{}, false
	if p.missed < len(p.regs) {
		rt.read(p)
	}
	if rt.cfg.Trace != nil {
		rt.traceOp(EvRead, p, p.ok)
	}
	if !p.ok {
		p.missed++
		if p.at++; p.at == len(p.regs) {
			p.at = 0
		}
		p.reg = p.regs[p.at]
		return
	}
	p.over = !p.hit(p.at, p.value)
	p.missed = 0
	rt.proceed(p)
}

// scanRead performs p's granted scan read and hands it, hit or miss, to the
// scan's visitor, a step of p; the scan is over after its last register.
func (rt *smRuntime) scanRead(p *smProcess) {
	rt.read(p)
	if rt.cfg.Trace != nil {
		rt.traceOp(EvRead, p, p.ok)
	}
	p.visit(p.at, p.value, p.ok)
	p.at++
	p.over = p.at == len(p.regs)
	rt.proceed(p)
}

// proceed follows every step of p and every write granted to it: it posts
// the next write the step queued, or else the call's read of regs[at], or,
// once the call is over, runs its then as p's next step and goes on from
// there. A process with no call left has returned. Each time the decision
// goes to the board first.
func (rt *smRuntime) proceed(p *smProcess) {
	for {
		rt.refresh(p)
		if p.queued < len(p.queue) {
			w := &p.queue[p.queued]
			p.queued++
			p.kind, p.reg, p.value = opWrite, w.reg, w.value
			return
		}
		p.queue, p.queued = p.queue[:0], 0
		switch {
		case p.call == 0:
			rt.drop(p)
			return
		case !p.over:
			p.kind, p.reg = p.call, p.regs[p.at]
			return
		}
		p.call = 0
		if p.then != nil {
			p.then()
		}
	}
}

// record fills the arena's record in with the run that just ended.
func (rt *smRuntime) record() *types.RunRecord {
	mode := types.Crash
	if len(rt.cfg.Byzantine) > 0 {
		mode = types.Byzantine
	}
	rec := &rt.rec
	rec.Reset(rt.cfg.Inputs, rt.view.Faulty)
	rec.T, rec.K = rt.t, rt.k
	rec.Model = types.Model{Comm: types.SharedMemory, Failure: mode}
	rec.Events, rec.Seed, rec.BudgetExhausted = rt.view.Ops, rt.cfg.Seed, rt.budgetExhausted
	for i := range rt.procs {
		p := &rt.procs[i]
		rec.Decided[i], rec.Decisions[i], rec.DecidedAtEvent[i] = p.decided, p.decision, -1
		if p.decided {
			rec.DecidedAtEvent[i] = p.decidedAt
		}
	}
	return rec
}
