// The runtime below is one loop on the goroutine that called Run and one
// coroutine (iter.Pull) per process. A process runs only inside the loop's
// call to its next(): from the grant of its pending register operation to the
// moment it posts the following one, or returns — or, for a poll read that
// hits and for every scan read, inside the loop's call to the handler. A poll
// read that misses runs no process code: the loop posts the poll's next
// register itself. A handler's writes wait in the process's queue until it
// returns; the loop then posts them one by one before the call's next read.
// Nothing is ever runnable beside the loop — no goroutine is started, no
// channel, lock or wait group is used — so registers, scheduler state, the
// view and the request slots need no synchronization, the schedule is a pure
// function of the seed, and Scheduler.Next, CrashAdversary.CrashBeforeOp,
// Config.Trace, the Recorder and every poll's handler are always called on
// Run's goroutine. A switch into or out of a coroutine goes straight from one
// stack to the other without passing the run queue.
//
// The build constraint is for the iter import: the module's go line is 1.22
// (it moves together with bench/go.mod's), the installed toolchain has the
// package, and without the constraint go vet's stdversion check rejects
// iter.Pull in a go1.22 file. There is no second runtime for older
// toolchains.

//go:build go1.23

package smmem

import (
	"errors"
	"fmt"
	"iter"

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

// opKind enumerates the register operations a process can post.
type opKind uint8

const (
	opRead opKind = iota + 1
	opWrite
	opPoll // a read of a poll's list
	opScan // a read of a scan's list
)

// queuedWrite is a write made inside a handler, posted once it returns.
type queuedWrite struct {
	name  string
	value types.Payload
}

// haltSignal is panicked inside API calls to unwind a process whose coroutine
// the runtime has stopped (a crash, the end of the run); the coroutine's body
// recovers it.
type haltSignal struct{}

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

	// live: not crashed, Protocol.Run not returned. Whenever the scheduler is
	// consulted every live process has a request posted in the slot below.
	live bool

	// The posted request (kind, register, value of a write) and, once
	// granted, the result of a read. The process writes the slot and yields;
	// the loop writes the result and resumes it. A Read or Write names its
	// register by its text, name; a poll's or a scan's read by the Reg
	// {owner, name, index} it was posted from, regs[at].
	kind  opKind
	owner types.ProcessID
	name  string
	index int
	value types.Payload
	ok    bool

	// names holds what the last two Names a poll or scan read looked up
	// resolved to, kept across calls and runs. A read whose Name is one of
	// them — SIMULATION's bc/ and msg/<me>/, E's and F's input — costs a
	// string comparison, pointer-equal as a rule, and no lookup.
	names [2]resolved

	// A poll or a scan in progress (call is opPoll or opScan, 0 outside
	// both): its registers, the index of the one posted, and the handler of
	// a poll's hits or the visitor of a scan's reads. inHandler is set while
	// either runs and over once it has ended the call. The handler's writes
	// wait in queue; queued counts those already posted. missed counts the
	// poll's reads in a row that found nothing while the runtime's write
	// count stood at writes: once it reaches len(regs), every register of
	// the list is unwritten until the next write anywhere.
	call      opKind
	regs      []Reg
	at        int
	hit       func(int, types.Payload) bool
	visit     func(int, types.Payload, bool)
	inHandler bool
	over      bool
	queue     []queuedWrite
	queued    int
	missed    int
	writes    int

	// The coroutine: next resumes the process until its next request (true)
	// or its return (false), stop makes the pending yield report false.
	next func() (struct{}, bool)
	stop func()

	api smAPI // what the protocol's Run is handed
}

// smAPI adapts a process to the API interface. Everything here runs inside
// the loop's call to next, so Decide and the accessors need no
// synchronization. yield is the process's side of the coroutine switch.
type smAPI struct {
	p     *smProcess
	rt    *smRuntime
	yield func(struct{}) bool
}

var _ API = (*smAPI)(nil)

func (a *smAPI) ID() types.ProcessID { return a.p.id }
func (a *smAPI) N() int              { return a.rt.n }
func (a *smAPI) T() int              { return a.rt.t }
func (a *smAPI) K() int              { return a.rt.k }
func (a *smAPI) Input() types.Value  { return a.p.input }
func (a *smAPI) Rand() *prng.Source  { return &a.p.rng }
func (a *smAPI) HasDecided() bool    { return a.p.decided }

func (a *smAPI) Write(reg string, p types.Payload) {
	if a.p.inHandler {
		a.p.queue = append(a.p.queue, queuedWrite{name: reg, value: p})
		return
	}
	a.p.value = p
	a.op(opWrite, a.p.id, reg)
}

func (a *smAPI) Read(owner types.ProcessID, reg string) (types.Payload, bool) {
	a.outsideHandler(opRead)
	a.op(opRead, owner, reg)
	return a.p.value, a.p.ok
}

func (a *smAPI) Poll(start int, regs []Reg, hit func(i int, p types.Payload) bool) {
	a.outsideHandler(opPoll)
	if start < 0 || start >= len(regs) {
		panic(fmt.Sprintf("smmem: Poll from index %d of %d registers", start, len(regs)))
	}
	p := a.p
	p.call, p.regs, p.at, p.hit, p.missed = opPoll, regs, start, hit, 0
	p.post(opPoll)
	a.wait()
}

func (a *smAPI) Scan(regs []Reg, visit func(i int, p types.Payload, ok bool)) {
	a.outsideHandler(opScan)
	if len(regs) == 0 {
		return
	}
	p := a.p
	p.call, p.regs, p.at, p.visit = opScan, regs, 0, visit
	p.post(opScan)
	a.wait()
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
	// process posts its next request or returns, or its handler returns, so
	// the scheduler sees it before granting anything else.
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

// opNames names the operations for the panic of one made inside a handler.
var opNames = [...]string{opRead: "Read", opPoll: "Poll", opScan: "Scan"}

// outsideHandler panics inside a handler, which runs on the loop's own stack
// with no coroutine to yield from: a read, poll or scan cannot wait there for
// its grant. (A write is queued instead, see Write.)
func (a *smAPI) outsideHandler(kind opKind) {
	if p := a.p; p.inHandler {
		panic("smmem: " + opNames[kind] + " inside a " + opNames[p.call] + " handler")
	}
}

// op posts a Read or Write request and returns once it has been granted.
func (a *smAPI) op(kind opKind, owner types.ProcessID, name string) {
	p := a.p
	p.kind, p.owner, p.name = kind, owner, name
	a.wait()
}

// wait returns once the posted request has been granted; a crash or the end
// of the run unwinds the process via panic(haltSignal{}) instead.
func (a *smAPI) wait() {
	if !a.yield(struct{}{}) {
		panic(haltSignal{})
	}
}

// post posts the read of regs[at] for the poll or scan in progress.
func (p *smProcess) post(kind opKind) {
	r := &p.regs[p.at]
	p.kind, p.owner, p.name, p.index = kind, r.Owner, r.Name, r.Index
}

// smRuntime is one run.
type smRuntime struct {
	cfg     Config
	n, t, k int
	procs   []smProcess // one allocation; the runtime keeps pointers into it
	view    *View       // its own allocation: a policy that keeps it keeps nothing else of the run
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
}

func (rt *smRuntime) recordBug(err error) {
	if rt.err == nil {
		rt.err = err
	}
}

// Run executes one shared-memory run to completion (all correct processes
// decided, quiescence, or budget exhaustion) and returns its record. Every
// process has returned or been unwound by the time Run returns, also when it
// returns by a panic out of protocol code, which reaches Run's caller.
func Run(cfg Config) (*types.RunRecord, error) {
	return new(Runner).Run(cfg)
}

// Runner executes runs one after another on one arena: the process table
// with every process's generator, handler queue and resolved Names, the
// candidate list, and
// the register store's family table and slices keep their memory from one
// Run to the next, so a sweep's later runs grow nothing the earlier ones
// already grew. Only the View is new in every run: Hold and Starve tell runs
// apart by its pointer. A run on a used Runner is the run a fresh one would
// make — same schedule, same record, same Recorder and Trace streams —
// whatever ran before it and however that ended, a panic included; a
// returned RunRecord shares no memory with the arena.
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
	flags := make([]bool, 3*n)
	*rt = smRuntime{
		cfg: cfg,
		n:   n, t: cfg.T, k: cfg.K,
		budget: cfg.MaxOps,
		sched:  cfg.Scheduler,
		mem:    mem,
		view: &View{
			N: n, T: cfg.T, K: cfg.K,
			Decided: flags[:n:n],
			Crashed: flags[n : 2*n : 2*n],
			Faulty:  flags[2*n:],
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

// traceRead traces p's granted read under its register's text.
func (rt *smRuntime) traceRead(p *smProcess) {
	reg := p.name
	if p.kind != opRead {
		reg = regText(Reg{Name: p.name, Index: p.index})
	}
	rt.trace(TraceEvent{Type: EvRead, Proc: p.id, Owner: p.owner,
		Register: reg, Payload: p.value, Present: p.ok})
}

// body is what p's coroutine runs: the protocol, with the unwinding of a
// stopped process ending here. Any other panic is a bug in the protocol and
// comes out of the loop's next or stop.
func (rt *smRuntime) body(p *smProcess) iter.Seq[struct{}] {
	return func(yield func(struct{}) bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(haltSignal); !ok {
					panic(r)
				}
			}
		}()
		p.api.yield = yield
		p.proto.Run(&p.api)
	}
}

// resume runs p until it posts its next request or returns, then takes it
// off the candidates if it returned and copies its decision to the board.
func (rt *smRuntime) resume(p *smProcess) {
	if _, posted := p.next(); !posted {
		rt.drop(p)
	}
	rt.refresh(p)
}

// refresh copies p's decision onto the decision board. A decision becomes
// visible when the process posts its next request or returns, or its handler
// returns; the operation count at that moment is the decision's latency.
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

// run brings the processes to their first request one at a time in id order,
// then grants operations until the run ends. Every coroutine has been ended
// when it returns, however it returns.
func (rt *smRuntime) run() {
	defer func() {
		for i := range rt.procs {
			if p := &rt.procs[i]; p.stop != nil {
				p.stop()
			}
		}
	}()
	for i := range rt.procs {
		p := &rt.procs[i]
		p.next, p.stop = iter.Pull(rt.body(p))
		rt.resume(p)
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

	pid := rt.sched.Next(rt.view, rt.pending, &rt.rng)
	if int(pid) < 0 || int(pid) >= rt.n || !rt.procs[pid].live {
		rt.recordBug(fmt.Errorf("%w: %v", ErrBadSchedule, pid))
		return false
	}
	if r := rt.cfg.Recorder; r != nil {
		r.Grant(pid)
	}
	p := &rt.procs[pid]

	if adv := rt.cfg.Crash; adv != nil && !p.byz && rt.faults < rt.t &&
		adv.CrashBeforeOp(rt.view, pid, p.ops) {
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
		p.stop()
		return true
	}

	rt.view.Ops++
	p.ops++
	switch p.kind {
	case opRead:
		f, i := rt.mem.byText(p.name)
		p.value, p.ok = rt.mem.read(p.owner, f, i)
		if rt.cfg.Trace != nil {
			rt.traceRead(p)
		}
	case opWrite:
		f, i := rt.mem.byText(p.name)
		rt.mem.write(pid, f, i, p.value)
		if rt.cfg.Trace != nil {
			rt.trace(TraceEvent{Type: EvWrite, Proc: pid, Owner: pid,
				Register: p.name, Payload: p.value, Present: true})
		}
		if p.call != 0 {
			rt.proceed(p) // a handler's write
			return true
		}
	case opPoll:
		rt.pollRead(p)
		return true
	case opScan:
		rt.scanRead(p)
		return true
	}
	rt.resume(p)
	return true
}

// lookup performs p's granted poll or scan read of the Reg posted from
// regs[at]. A read of a process that does not exist finds nothing, like a
// read of a register that was never written.
func (rt *smRuntime) lookup(p *smProcess) (types.Payload, bool) {
	r := &p.names[0]
	if r.fam == 0 || r.name != p.name {
		if r = &p.names[1]; r.fam == 0 || r.name != p.name {
			p.names[1] = p.names[0]
			r = &p.names[0]
			*r = rt.mem.resolve(p.name)
		}
	}
	// The entry keeps the Reg's own string, so its next comparison is
	// pointer-equal also after an equal Name was built anew.
	r.name = p.name
	i := p.index
	switch {
	case r.at < 0 && i >= 0:
	case r.at >= 0 && i == 0:
		i = r.at
	case r.at >= 0:
		panic(fmt.Sprintf("smmem: register %+v: a non-zero Index needs a Name ending in /", Reg{Owner: p.owner, Name: p.name, Index: p.index}))
	default:
		panic(fmt.Sprintf("smmem: register %+v: negative Index", Reg{Owner: p.owner, Name: p.name, Index: p.index}))
	}
	return rt.mem.read(p.owner, r.fam, i)
}

// pollRead performs p's granted poll read. A miss runs no process code, so
// nothing can have been decided: it posts the poll's next register and p
// stays suspended. A hit runs the poll's handler here, on the loop's stack,
// and proceeds from there. A read is answered without a lookup once the poll
// has missed on every register of its list since the last write anywhere.
func (rt *smRuntime) pollRead(p *smProcess) {
	if p.writes != rt.mem.writes {
		p.writes, p.missed = rt.mem.writes, 0
	}
	p.value, p.ok = types.Payload{}, false
	if p.missed < len(p.regs) {
		p.value, p.ok = rt.lookup(p)
	}
	if rt.cfg.Trace != nil {
		rt.traceRead(p)
	}
	if !p.ok {
		p.missed++
		if p.at++; p.at == len(p.regs) {
			p.at = 0
		}
		p.post(opPoll)
		return
	}
	p.inHandler = true
	p.over = !p.hit(p.at, p.value)
	p.inHandler = false
	p.missed = 0
	rt.proceed(p)
}

// scanRead performs p's granted scan read and hands it, hit or miss, to the
// scan's visitor on the loop's stack; the scan is over after its last
// register.
func (rt *smRuntime) scanRead(p *smProcess) {
	p.value, p.ok = rt.lookup(p)
	if rt.cfg.Trace != nil {
		rt.traceRead(p)
	}
	p.inHandler = true
	p.visit(p.at, p.value, p.ok)
	p.inHandler = false
	p.at++
	p.over = p.at == len(p.regs)
	rt.proceed(p)
}

// proceed follows a handler that returned, and each of its writes once
// granted: it posts the handler's next queued write, or else the call's read
// of regs[at] — the decision going to the board as at a posted request — or,
// once the handler has ended the call, resumes p, whose Poll or Scan returns.
func (rt *smRuntime) proceed(p *smProcess) {
	if p.queued < len(p.queue) {
		w := &p.queue[p.queued]
		p.queued++
		rt.refresh(p)
		p.kind, p.name, p.value = opWrite, w.name, w.value
		return
	}
	p.queue, p.queued = p.queue[:0], 0
	if p.over {
		p.call = 0
		rt.resume(p)
		return
	}
	rt.refresh(p)
	p.post(p.call)
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
	for i := range rt.procs {
		p := &rt.procs[i]
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
