// Package smlive runs the same shared-memory protocols as the deterministic
// turn-based runtime (internal/smmem) over real goroutines and genuinely
// concurrent register operations: one goroutine per process, a mutex-guarded
// register file (each operation under the lock is an atomicity point, so the
// registers are linearizable), and the Go scheduler as the adversary. It is
// the shared-memory counterpart of internal/mplive: the demonstration that
// the protocol implementations survive real concurrency with the race
// detector as referee.
//
// Runs are not deterministic; correctness is asserted by the same checker as
// everywhere else, which must hold for every schedule.
package smlive

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"kset/internal/obs"
	"kset/internal/prng"
	"kset/internal/smmem"
	"kset/internal/types"
)

// Config describes one live shared-memory run.
type Config struct {
	N int // number of processes
	T int // declared failure bound
	K int // agreement bound

	// Inputs are the process input values; len(Inputs) must equal N.
	Inputs []types.Value

	// NewProtocol constructs the protocol instance for a correct process.
	NewProtocol func(id types.ProcessID) smmem.Protocol

	// Byzantine maps faulty process ids to strategies (count toward T).
	// Single-writer still holds: the API only writes the caller's registers.
	Byzantine map[types.ProcessID]smmem.Protocol

	// CrashAfterOps crashes a process before its given register operation
	// (0 = before its first). Entries count toward T with Byzantine ones.
	CrashAfterOps map[types.ProcessID]int

	// Seed seeds the per-process random streams.
	Seed uint64

	// Timeout bounds the run (default 10s); on expiry the record is
	// returned with BudgetExhausted set.
	Timeout time.Duration

	// Metrics, if non-nil, receives run timings: kset_smlive_run_seconds,
	// kset_smlive_decide_seconds, and the kset_smlive_runs_total /
	// kset_smlive_ops_total counters. Timings are wall-clock and do not
	// influence the run.
	Metrics *obs.Registry
}

// Errors reported by Run.
var (
	ErrBadConfig   = errors.New("smlive: invalid configuration")
	ErrFaultBudget = errors.New("smlive: faulty processes exceed t")
)

// haltSignal unwinds a process goroutine when the run ends or the process
// crashes.
type haltSignal struct{}

type regKey struct {
	owner types.ProcessID
	name  string
}

type liveMem struct {
	mu   sync.Mutex
	regs map[regKey]types.Payload
}

func (m *liveMem) write(k regKey, p types.Payload) {
	m.mu.Lock()
	m.regs[k] = p
	m.mu.Unlock()
}

func (m *liveMem) read(k regKey) (types.Payload, bool) {
	m.mu.Lock()
	p, ok := m.regs[k]
	m.mu.Unlock()
	return p, ok
}

type liveProc struct {
	id         types.ProcessID
	proto      smmem.Protocol
	input      types.Value
	rng        *prng.Source
	byz        bool
	crashAfter int // -1: never
	ops        int

	decided  bool
	decision types.Value
}

type liveRun struct {
	cfg    Config
	mem    *liveMem
	procs  []*liveProc
	halted atomic.Bool
	events chan event
}

type event struct {
	pid      types.ProcessID
	decided  bool
	crashed  bool
	decision types.Value
}

// liveAPI adapts one process to smmem.API. All methods run on the process's
// goroutine; register operations go through the shared mutex.
type liveAPI struct {
	p  *liveProc
	rt *liveRun
}

var _ smmem.API = (*liveAPI)(nil)

func (a *liveAPI) ID() types.ProcessID { return a.p.id }
func (a *liveAPI) N() int              { return a.rt.cfg.N }
func (a *liveAPI) T() int              { return a.rt.cfg.T }
func (a *liveAPI) K() int              { return a.rt.cfg.K }
func (a *liveAPI) Input() types.Value  { return a.p.input }
func (a *liveAPI) Rand() *prng.Source  { return a.p.rng }
func (a *liveAPI) HasDecided() bool    { return a.p.decided }

// step gates every register operation: it unwinds the goroutine when the
// run has ended or the process's crash point is reached, and yields so
// spinning protocols cannot monopolize a core.
func (a *liveAPI) step() {
	if a.rt.halted.Load() {
		panic(haltSignal{})
	}
	if a.p.crashAfter >= 0 && a.p.ops >= a.p.crashAfter {
		a.rt.notify(event{pid: a.p.id, crashed: true})
		panic(haltSignal{})
	}
	a.p.ops++
	runtime.Gosched()
}

func (a *liveAPI) Write(reg string, p types.Payload) {
	a.step()
	a.rt.mem.write(regKey{owner: a.p.id, name: reg}, p)
}

func (a *liveAPI) Read(owner types.ProcessID, reg string) (types.Payload, bool) {
	a.step()
	return a.rt.mem.read(regKey{owner: owner, name: reg})
}

// Poll is the loop of Reads its contract describes: a miss moves to the next
// register, a hit goes to hit, which ends the poll or has it read regs[i]
// again. hit's writes go to memory as it makes them; as hit reads nothing,
// that is the same as right after it returns.
func (a *liveAPI) Poll(start int, regs []smmem.Reg, hit func(i int, p types.Payload) bool) {
	if start < 0 || start >= len(regs) {
		panic(fmt.Sprintf("smlive: Poll from index %d of %d registers", start, len(regs)))
	}
	for i := start; ; {
		p, ok := a.Read(regs[i].Owner, regs[i].Name)
		switch {
		case !ok:
			i = (i + 1) % len(regs)
		case !hit(i, p):
			return
		}
	}
}

// Scan is the loop of Reads its contract describes: every read, hit or miss,
// goes to visit.
func (a *liveAPI) Scan(regs []smmem.Reg, visit func(i int, p types.Payload, ok bool)) {
	for i := range regs {
		p, ok := a.Read(regs[i].Owner, regs[i].Name)
		visit(i, p, ok)
	}
}

func (a *liveAPI) WriteValue(reg string, v types.Value) {
	a.Write(reg, types.Payload{Kind: types.KindInput, Value: v})
}

func (a *liveAPI) ReadValue(owner types.ProcessID, reg string) (types.Value, bool) {
	p, ok := a.Read(owner, reg)
	return p.Value, ok
}

func (a *liveAPI) Decide(v types.Value) {
	if a.p.decided {
		return
	}
	a.p.decided = true
	a.p.decision = v
	a.rt.notify(event{pid: a.p.id, decided: true, decision: v})
}

func (rt *liveRun) notify(ev event) {
	select {
	case rt.events <- ev:
	default:
		// The coordinator has stopped draining (run over): drop.
	}
}

// Run executes one live shared-memory run; all goroutines have exited when
// it returns.
func Run(cfg Config) (*types.RunRecord, error) {
	if err := validate(&cfg); err != nil {
		return nil, err
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	rt := &liveRun{
		cfg:    cfg,
		mem:    &liveMem{regs: make(map[regKey]types.Payload)},
		events: make(chan event, 4*cfg.N),
	}
	seeds := prng.New(cfg.Seed)
	rt.procs = make([]*liveProc, cfg.N)
	for i := 0; i < cfg.N; i++ {
		id := types.ProcessID(i)
		p := &liveProc{
			id:         id,
			input:      cfg.Inputs[i],
			rng:        seeds.Split(),
			crashAfter: -1,
		}
		if strat, ok := cfg.Byzantine[id]; ok {
			p.proto = strat
			p.byz = true
		} else {
			p.proto = cfg.NewProtocol(id)
		}
		if at, ok := cfg.CrashAfterOps[id]; ok {
			p.crashAfter = at
		}
		rt.procs[i] = p
	}

	var wg sync.WaitGroup
	wg.Add(cfg.N)
	for _, p := range rt.procs {
		p := p
		go func() {
			defer wg.Done()
			defer func() {
				r := recover()
				if r == nil {
					// Protocol returned without deciding: nothing to report;
					// the coordinator times out if it was correct.
					return
				}
				if _, ok := r.(haltSignal); ok {
					return
				}
				panic(r)
			}()
			p.proto.Run(&liveAPI{p: p, rt: rt})
		}()
	}

	// Coordinator: wait for every process that can decide to decide or
	// crash, then halt everyone.
	started := time.Now()
	decideHist := cfg.Metrics.Histogram("kset_smlive_decide_seconds", obs.DefaultLatencyBounds())
	needed := make(map[types.ProcessID]bool, cfg.N)
	faulty := make(map[types.ProcessID]bool, cfg.N)
	for _, p := range rt.procs {
		if p.byz {
			faulty[p.id] = true
			continue
		}
		needed[p.id] = true
	}
	timer := time.NewTimer(cfg.Timeout)
	defer timer.Stop()
	timedOut := false
	for len(needed) > 0 && !timedOut {
		select {
		case ev := <-rt.events:
			if ev.crashed {
				faulty[ev.pid] = true
			}
			if ev.decided {
				decideHist.Observe(time.Since(started).Seconds())
			}
			delete(needed, ev.pid)
		case <-timer.C:
			timedOut = true
		}
	}
	rt.halted.Store(true)
	wg.Wait()

	cfg.Metrics.Histogram("kset_smlive_run_seconds", obs.DefaultLatencyBounds()).
		Observe(time.Since(started).Seconds())
	cfg.Metrics.Counter("kset_smlive_runs_total").Inc()

	rec := &types.RunRecord{
		N: cfg.N, T: cfg.T, K: cfg.K,
		Model:           types.Model{Comm: types.SharedMemory, Failure: failureMode(&cfg)},
		Inputs:          append([]types.Value(nil), cfg.Inputs...),
		Faulty:          make([]bool, cfg.N),
		Decided:         make([]bool, cfg.N),
		Decisions:       make([]types.Value, cfg.N),
		Seed:            cfg.Seed,
		BudgetExhausted: timedOut,
	}
	for i, p := range rt.procs {
		rec.Faulty[i] = faulty[p.id]
		rec.Decided[i] = p.decided
		rec.Decisions[i] = p.decision
		rec.Events += p.ops
	}
	cfg.Metrics.Counter("kset_smlive_ops_total").Add(int64(rec.Events))
	return rec, nil
}

func failureMode(cfg *Config) types.FailureMode {
	if len(cfg.Byzantine) > 0 {
		return types.Byzantine
	}
	return types.Crash
}

func validate(cfg *Config) error {
	if cfg.N <= 0 {
		return fmt.Errorf("%w: n=%d", ErrBadConfig, cfg.N)
	}
	if len(cfg.Inputs) != cfg.N {
		return fmt.Errorf("%w: %d inputs for n=%d", ErrBadConfig, len(cfg.Inputs), cfg.N)
	}
	if cfg.NewProtocol == nil {
		return fmt.Errorf("%w: NewProtocol is nil", ErrBadConfig)
	}
	outside := func(id types.ProcessID) bool { return int(id) < 0 || int(id) >= cfg.N }
	if id, bad := types.SmallestID(cfg.Byzantine, func(id types.ProcessID, strat smmem.Protocol) bool {
		return outside(id) || strat == nil
	}); bad {
		return fmt.Errorf("%w: Byzantine id %d out of range or without a strategy", ErrBadConfig, id)
	}
	if id, bad := types.SmallestID(cfg.CrashAfterOps, func(id types.ProcessID, at int) bool {
		return outside(id) || at < 0
	}); bad {
		return fmt.Errorf("%w: crash of id %d out of range or before operation 0", ErrBadConfig, id)
	}
	planned := len(cfg.Byzantine)
	for id := range cfg.CrashAfterOps {
		if _, both := cfg.Byzantine[id]; !both {
			planned++
		}
	}
	if planned > cfg.T {
		return fmt.Errorf("%w: %d planned faults for t=%d", ErrFaultBudget, planned, cfg.T)
	}
	return nil
}
