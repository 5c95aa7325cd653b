// Package mplive runs the same message-passing protocols as the
// deterministic simulator (internal/mpnet) over real goroutines and Go
// channels: one goroutine per process, one delivery goroutine per message
// with a seeded random delay. It demonstrates that the protocol
// implementations are genuinely asynchronous — correct under real
// concurrency and the race detector, not just under the simulator's
// serialized schedules.
//
// Runs are not deterministic (the Go scheduler is part of the adversary
// here); correctness is asserted by the same checker as everywhere else,
// which must hold for every schedule.
package mplive

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"kset/internal/mpnet"
	"kset/internal/obs"
	"kset/internal/prng"
	"kset/internal/types"
)

// Config describes one live run.
type Config struct {
	N int // number of processes
	T int // declared failure bound
	K int // agreement bound

	// Inputs are the process input values; len(Inputs) must equal N.
	Inputs []types.Value

	// NewProtocol constructs the protocol instance for a correct process.
	// Instances are confined to their process's goroutine.
	NewProtocol func(id types.ProcessID) mpnet.Protocol

	// Byzantine maps faulty process ids to strategies (count toward T).
	Byzantine map[types.ProcessID]mpnet.Protocol

	// CrashAfterDeliveries crashes a process after it has processed that
	// many deliveries (0 = crash before processing anything). Crashed
	// processes silently stop. Entries count toward T together with
	// Byzantine processes.
	CrashAfterDeliveries map[types.ProcessID]int

	// Seed drives the per-message artificial delivery delays.
	Seed uint64

	// MaxDelay bounds the artificial delivery delay (default 2ms).
	MaxDelay time.Duration

	// Timeout bounds the whole run (default 10s). On timeout the record is
	// returned with BudgetExhausted set.
	Timeout time.Duration

	// Metrics, if non-nil, receives run timings: kset_mplive_run_seconds
	// (whole-run wall time), kset_mplive_decide_seconds (per-process
	// start-to-decide), and the kset_mplive_runs_total /
	// kset_mplive_messages_total counters. Timings are wall-clock and do not
	// influence the run, so determinism of the record is unaffected.
	Metrics *obs.Registry
}

// Errors reported by Run.
var (
	ErrBadConfig   = errors.New("mplive: invalid configuration")
	ErrFaultBudget = errors.New("mplive: faulty processes exceed t")
)

type event struct {
	pid      types.ProcessID
	decision types.Value
	decided  bool
	crashed  bool
}

type liveMsg struct {
	from    types.ProcessID
	payload types.Payload
}

type liveProcess struct {
	id    types.ProcessID
	proto mpnet.Protocol
	input types.Value
	rng   *prng.Source
	byz   bool

	crashAfter int // -1: never
	inbox      chan liveMsg
	selfQueue  []types.Payload

	decided  bool
	decision types.Value

	rt *liveRuntime
}

type liveRuntime struct {
	cfg   Config
	procs []*liveProcess

	done   chan struct{} // closed exactly once when the run ends
	events chan event

	deliveries sync.WaitGroup // in-flight message deliveries
	procsWG    sync.WaitGroup

	msgMu    sync.Mutex
	messages int

	delayMu sync.Mutex
	delay   *prng.Source
}

// liveAPI adapts a process to mpnet.API. It is confined to the process
// goroutine except Send/Broadcast, which hand messages to the delivery
// layer.
type liveAPI struct {
	p *liveProcess
}

var _ mpnet.API = (*liveAPI)(nil)

func (a *liveAPI) ID() types.ProcessID { return a.p.id }
func (a *liveAPI) N() int              { return len(a.p.rt.procs) }
func (a *liveAPI) T() int              { return a.p.rt.cfg.T }
func (a *liveAPI) K() int              { return a.p.rt.cfg.K }
func (a *liveAPI) Input() types.Value  { return a.p.input }
func (a *liveAPI) HasDecided() bool    { return a.p.decided }
func (a *liveAPI) Rand() *prng.Source  { return a.p.rng }

func (a *liveAPI) Send(to types.ProcessID, payload types.Payload) {
	rt := a.p.rt
	if int(to) < 0 || int(to) >= len(rt.procs) {
		return
	}
	rt.msgMu.Lock()
	rt.messages++
	rt.msgMu.Unlock()
	if to == a.p.id {
		a.p.selfQueue = append(a.p.selfQueue, payload)
		return
	}
	rt.deliver(a.p.id, to, payload)
}

func (a *liveAPI) Broadcast(payload types.Payload) {
	n := len(a.p.rt.procs)
	for q := 0; q < n; q++ {
		a.Send(types.ProcessID(q), payload)
	}
}

func (a *liveAPI) Decide(v types.Value) {
	p := a.p
	if p.decided {
		return
	}
	p.decided = true
	p.decision = v
	select {
	case p.rt.events <- event{pid: p.id, decision: v, decided: true}:
	case <-p.rt.done:
	}
}

// deliver launches one delivery with a random delay. The goroutine is
// tracked and aborts if the run ends first, so Run never leaks goroutines.
func (rt *liveRuntime) deliver(from, to types.ProcessID, payload types.Payload) {
	rt.delayMu.Lock()
	d := time.Duration(rt.delay.Intn(int(rt.cfg.MaxDelay) + 1))
	rt.delayMu.Unlock()
	rt.deliveries.Add(1)
	go func() {
		defer rt.deliveries.Done()
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-rt.done:
			return
		}
		select {
		case rt.procs[to].inbox <- liveMsg{from: from, payload: payload}:
		case <-rt.done:
		}
	}()
}

// Run executes one live run and returns its record. All goroutines started
// by the run have exited when Run returns.
func Run(cfg Config) (*types.RunRecord, error) {
	if err := validate(&cfg); err != nil {
		return nil, err
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 2 * time.Millisecond
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 10 * time.Second
	}
	rt := &liveRuntime{
		cfg:    cfg,
		done:   make(chan struct{}),
		events: make(chan event, cfg.N*2),
		delay:  prng.New(cfg.Seed),
	}
	seeds := prng.New(cfg.Seed + 1)
	rt.procs = make([]*liveProcess, cfg.N)
	for i := 0; i < cfg.N; i++ {
		id := types.ProcessID(i)
		p := &liveProcess{
			id:         id,
			input:      cfg.Inputs[i],
			rng:        seeds.Split(),
			crashAfter: -1,
			inbox:      make(chan liveMsg, cfg.N*cfg.N+4),
			rt:         rt,
		}
		if strat, ok := cfg.Byzantine[id]; ok {
			p.proto = strat
			p.byz = true
		} else {
			p.proto = cfg.NewProtocol(id)
		}
		if after, ok := cfg.CrashAfterDeliveries[id]; ok {
			p.crashAfter = after
		}
		rt.procs[i] = p
	}

	rt.procsWG.Add(cfg.N)
	for _, p := range rt.procs {
		go p.run()
	}

	// Coordinator: wait until every process that can still decide has
	// decided or crashed, then end the run.
	started := time.Now()
	decideHist := cfg.Metrics.Histogram("kset_mplive_decide_seconds", obs.DefaultLatencyBounds())
	needed := make(map[types.ProcessID]bool, cfg.N)
	faulty := make(map[types.ProcessID]bool, cfg.N)
	for _, p := range rt.procs {
		if p.byz {
			faulty[p.id] = true
			continue
		}
		needed[p.id] = true
	}
	timeout := time.NewTimer(cfg.Timeout)
	defer timeout.Stop()
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
			if ev.crashed || ev.decided {
				delete(needed, ev.pid)
			}
		case <-timeout.C:
			timedOut = true
		}
	}
	close(rt.done)
	rt.deliveries.Wait()
	rt.procsWG.Wait()

	cfg.Metrics.Histogram("kset_mplive_run_seconds", obs.DefaultLatencyBounds()).
		Observe(time.Since(started).Seconds())
	cfg.Metrics.Counter("kset_mplive_runs_total").Inc()
	cfg.Metrics.Counter("kset_mplive_messages_total").Add(int64(rt.messages))

	rec := &types.RunRecord{
		N: cfg.N, T: cfg.T, K: cfg.K,
		Model:           types.Model{Comm: types.MessagePassing, Failure: failureMode(&cfg)},
		Inputs:          append([]types.Value(nil), cfg.Inputs...),
		Faulty:          make([]bool, cfg.N),
		Decided:         make([]bool, cfg.N),
		Decisions:       make([]types.Value, cfg.N),
		Seed:            cfg.Seed,
		Messages:        rt.messages,
		BudgetExhausted: timedOut,
	}
	for i, p := range rt.procs {
		rec.Faulty[i] = faulty[p.id]
		rec.Decided[i] = p.decided
		rec.Decisions[i] = p.decision
	}
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
	if id, bad := types.SmallestID(cfg.Byzantine, func(id types.ProcessID, strat mpnet.Protocol) bool {
		return outside(id) || strat == nil
	}); bad {
		return fmt.Errorf("%w: Byzantine id %d out of range or without a strategy", ErrBadConfig, id)
	}
	if id, bad := types.SmallestID(cfg.CrashAfterDeliveries, func(id types.ProcessID, at int) bool {
		return outside(id) || at < 0
	}); bad {
		return fmt.Errorf("%w: crash of id %d out of range or before delivery 0", ErrBadConfig, id)
	}
	planned := len(cfg.Byzantine)
	for id := range cfg.CrashAfterDeliveries {
		if _, both := cfg.Byzantine[id]; !both {
			planned++
		}
	}
	if planned > cfg.T {
		return fmt.Errorf("%w: %d planned faults for t=%d", ErrFaultBudget, planned, cfg.T)
	}
	return nil
}

// run is the process main loop: Start, then deliveries until crash or run
// end. The process keeps participating after deciding ("helping"), as the
// paper's Byzantine protocols require.
func (p *liveProcess) run() {
	defer p.rt.procsWG.Done()
	api := &liveAPI{p: p}
	delivered := 0

	crashNow := func() bool { return p.crashAfter >= 0 && delivered >= p.crashAfter }
	notifyCrash := func() {
		select {
		case p.rt.events <- event{pid: p.id, crashed: true}:
		case <-p.rt.done:
		}
	}

	if crashNow() {
		notifyCrash()
		return
	}
	p.proto.Start(api)
	p.drainSelf(api)

	for {
		if crashNow() {
			notifyCrash()
			return
		}
		select {
		case msg := <-p.inbox:
			delivered++
			p.proto.Deliver(api, msg.from, msg.payload)
			p.drainSelf(api)
		case <-p.rt.done:
			return
		}
	}
}

func (p *liveProcess) drainSelf(api *liveAPI) {
	for len(p.selfQueue) > 0 {
		payload := p.selfQueue[0]
		p.selfQueue = p.selfQueue[1:]
		p.proto.Deliver(api, p.id, payload)
	}
}
