package smmem

// The runtime as it was before turn passing: a central scheduler goroutine
// that every process goroutine asks, over one shared request channel and one
// reply channel each, for every register operation. The run and op bodies
// below are the old ones (two goroutine switches per operation, a mutex, three
// O(n) walks per grant). They are the oracle of
// TestTurnPassingMatchesReference — the production runtime must grant the
// same processes in the same order, consult scheduler, crash adversary,
// recorder and trace at the same points with the same view, and return the
// same record — and are not meant to be fast. Configuration, per-process
// state, the register map and the record are the production runtime's.

import (
	"fmt"
	"sync"

	"kset/internal/prng"
	"kset/internal/types"
)

const refOpExit opKind = opWrite + 1 // Protocol.Run returned

type refRequest struct {
	pid   types.ProcessID
	kind  opKind
	key   regKey
	value types.Payload
	reply chan refReply
}

type refReply struct {
	value types.Payload
	ok    bool
	halt  bool
}

type refRuntime struct {
	*smRuntime
	reqCh chan refRequest
	rep   []chan refReply

	mu sync.Mutex
}

func (rt *refRuntime) recordBug(err error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.err == nil {
		rt.err = err
	}
}

func (rt *refRuntime) bug() error {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.err
}

type refAPI struct {
	p  *smProcess
	rt *refRuntime
}

var _ API = (*refAPI)(nil)

func (a *refAPI) ID() types.ProcessID { return a.p.id }
func (a *refAPI) N() int              { return a.rt.n }
func (a *refAPI) T() int              { return a.rt.t }
func (a *refAPI) K() int              { return a.rt.k }
func (a *refAPI) Input() types.Value  { return a.p.input }
func (a *refAPI) Rand() *prng.Source  { return a.p.rng }
func (a *refAPI) HasDecided() bool    { return a.p.decided }

func (a *refAPI) Write(reg string, p types.Payload) {
	a.op(refRequest{pid: a.p.id, kind: opWrite, key: regKey{owner: a.p.id, name: reg}, value: p})
}

func (a *refAPI) Read(owner types.ProcessID, reg string) (types.Payload, bool) {
	rep := a.op(refRequest{pid: a.p.id, kind: opRead, key: regKey{owner: owner, name: reg}})
	return rep.value, rep.ok
}

func (a *refAPI) WriteValue(reg string, v types.Value) {
	a.Write(reg, types.Payload{Kind: types.KindInput, Value: v})
}

func (a *refAPI) ReadValue(owner types.ProcessID, reg string) (types.Value, bool) {
	p, ok := a.Read(owner, reg)
	return p.Value, ok
}

func (a *refAPI) Decide(v types.Value) {
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

func (a *refAPI) op(req refRequest) refReply {
	req.reply = a.rt.rep[a.p.id]
	a.rt.reqCh <- req
	rep := <-req.reply
	if rep.halt {
		panic(haltSignal{})
	}
	return rep
}

// runReference is Run on the old runtime.
func runReference(cfg Config) (*types.RunRecord, error) {
	if err := validate(&cfg); err != nil {
		return nil, err
	}
	rt := &refRuntime{smRuntime: newRuntime(cfg), reqCh: make(chan refRequest)}
	rt.rep = make([]chan refReply, rt.n)
	for i := range rt.rep {
		rt.rep[i] = make(chan refReply)
	}
	rt.run()
	if err := rt.bug(); err != nil {
		return nil, err
	}
	return rt.record(), nil
}

func (rt *refRuntime) faultCount() int {
	c := 0
	for _, p := range rt.procs {
		if p.crashed || p.byz {
			c++
		}
	}
	return c
}

func (rt *refRuntime) mayCrash(p *smProcess) bool {
	return !p.crashed && !p.byz && rt.faultCount() < rt.t
}

func (rt *refRuntime) allCorrectDecided() bool {
	for _, p := range rt.procs {
		if p.crashed || p.byz {
			continue
		}
		if !p.decided {
			return false
		}
	}
	return true
}

func (rt *refRuntime) run() {
	var wg sync.WaitGroup
	wg.Add(rt.n)
	for _, p := range rt.procs {
		p := p
		go func() {
			defer wg.Done()
			defer func() {
				r := recover()
				if r == nil {
					rt.reqCh <- refRequest{pid: p.id, kind: refOpExit}
					return
				}
				if _, ok := r.(haltSignal); ok {
					return
				}
				panic(r)
			}()
			p.proto.Run(&refAPI{p: p, rt: rt})
		}()
	}

	outstanding := rt.n
	pendingReq := make([]refRequest, rt.n)
	pendingSet := make([]bool, rt.n)
	npending := 0

	drain := func() {
		for outstanding > 0 {
			req := <-rt.reqCh
			if req.kind != refOpExit {
				pendingReq[req.pid] = req
				pendingSet[req.pid] = true
				npending++
			}
			outstanding--
		}
	}

	haltAll := func() {
		for pid := 0; pid < rt.n; pid++ {
			if !pendingSet[pid] {
				continue
			}
			pendingSet[pid] = false
			npending--
			pendingReq[pid].reply <- refReply{halt: true}
		}
	}

	ids := make([]types.ProcessID, 0, rt.n)
	for {
		drain()
		if rt.bug() != nil {
			haltAll()
			break
		}
		if rt.allCorrectDecided() {
			haltAll()
			break
		}
		if npending == 0 {
			break
		}
		if rt.view.Ops >= rt.budget {
			rt.budgetExhausted = true
			haltAll()
			break
		}

		for _, p := range rt.procs {
			if p.decided && !rt.view.Decided[p.id] {
				p.decidedAt = rt.view.Ops
			}
			rt.view.Decided[p.id] = p.decided
		}

		ids = ids[:0]
		for i := 0; i < rt.n; i++ {
			if pendingSet[i] {
				ids = append(ids, types.ProcessID(i))
			}
		}
		pid := rt.sched.Next(&rt.view, ids, rt.rng)
		if int(pid) < 0 || int(pid) >= rt.n || !pendingSet[pid] {
			rt.recordBug(fmt.Errorf("%w: %v", ErrBadSchedule, pid))
			haltAll()
			break
		}
		if r := rt.cfg.Recorder; r != nil {
			r.Grant(pid)
		}
		req := pendingReq[pid]
		p := rt.procs[pid]

		if adv := rt.cfg.Crash; adv != nil && rt.mayCrash(p) &&
			adv.CrashBeforeOp(&rt.view, pid, p.ops) {
			if r := rt.cfg.Recorder; r != nil {
				r.CrashAtOp(pid, p.ops)
			}
			p.crashed = true
			rt.view.Crashed[pid] = true
			rt.view.Faulty[pid] = true
			rt.trace(TraceEvent{Type: EvCrash, Proc: pid})
			pendingSet[pid] = false
			npending--
			req.reply <- refReply{halt: true}
			continue
		}

		pendingSet[pid] = false
		npending--
		rt.view.Ops++
		p.ops++
		switch req.kind {
		case opRead:
			v, present := rt.regs[req.key]
			rt.trace(TraceEvent{Type: EvRead, Proc: pid, Owner: req.key.owner,
				Register: req.key.name, Payload: v, Present: present})
			outstanding++
			req.reply <- refReply{value: v, ok: present}
		case opWrite:
			rt.regs[req.key] = req.value
			rt.trace(TraceEvent{Type: EvWrite, Proc: pid, Owner: req.key.owner,
				Register: req.key.name, Payload: req.value, Present: true})
			outstanding++
			req.reply <- refReply{ok: true}
		}
	}

	wg.Wait()
	for _, p := range rt.procs {
		if p.decided && !rt.view.Decided[p.id] {
			p.decidedAt = rt.view.Ops
		}
		rt.view.Decided[p.id] = p.decided
		if p.decided {
			rt.trace(TraceEvent{Type: EvDecide, Proc: p.id, Value: p.decision})
		}
	}
}

// refPickExcluding is the tail of Hold.Next and Starve.Next as it was: an
// eligible slice built per pick. pickExcluding must make the same pick from
// the same single draw.
func refPickExcluding(pending []types.ProcessID, excluded []bool, rng *prng.Source) types.ProcessID {
	eligible := make([]types.ProcessID, 0, len(pending))
	for _, pid := range pending {
		if !excluded[pid] {
			eligible = append(eligible, pid)
		}
	}
	if len(eligible) == 0 {
		return pending[rng.Intn(len(pending))]
	}
	return eligible[rng.Intn(len(eligible))]
}
