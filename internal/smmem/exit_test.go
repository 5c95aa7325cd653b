package smmem_test

// What running every process's steps on Run's own loop promises beyond the
// schedule: every way out of Run ends the run the way it is meant to and
// leaves no goroutine behind, and a panic in protocol code comes out of Run
// like any other call's.

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"kset/internal/smmem"
	"kset/internal/sweep"
	"kset/internal/theory"
	"kset/internal/trace"
	"kset/internal/types"
)

func decidedCount(rec *types.RunRecord) int {
	c := 0
	for _, d := range rec.Decided {
		if d {
			c++
		}
	}
	return c
}

func TestRunLeavesNoGoroutines(t *testing.T) {
	const n = 8
	all := func(run func(smmem.API)) func(types.ProcessID) smmem.Protocol {
		return func(types.ProcessID) smmem.Protocol { return runFunc(run) }
	}
	spinning := all(func(api smmem.API) { spin(api, smmem.Reg{Name: "v"}) })
	simulation, err := trace.ProtocolSpec{Proto: theory.ProtoFloodMin, Sim: true}.SMFactory()
	if err != nil {
		t.Fatal(err)
	}
	// p1 polls registers nobody writes, deciding first if decideFirst; the
	// others scan for everyone's v but p1's.
	neverHits := func(decideFirst bool) func(types.ProcessID) smmem.Protocol {
		return func(id types.ProcessID) smmem.Protocol {
			return runFunc(func(api smmem.API) {
				if id != 0 {
					scan(api, n-1)
					return
				}
				if decideFirst {
					api.Decide(api.Input())
				}
				api.Poll(0, []smmem.Reg{{Owner: 1, Name: "never"}, {Owner: 2, Name: "never"}},
					func(int, types.Payload) bool { panic("a poll of registers nobody writes hit") },
					func() { panic("a poll of registers nobody writes ended") })
			})
		}
	}
	// p1 polls (or scans) everyone's v with a handler that panics on the
	// loop's stack at its first call, or scans there; the others scan.
	badHandler := func(poll bool, hit func(api smmem.API)) func(types.ProcessID) smmem.Protocol {
		return func(id types.ProcessID) smmem.Protocol {
			return runFunc(func(api smmem.API) {
				if id != 0 {
					scan(api, n-1)
					return
				}
				var regs []smmem.Reg
				for q := 1; q < n; q++ {
					regs = append(regs, smmem.Reg{Owner: types.ProcessID(q), Name: "v"})
				}
				if !poll {
					api.Scan(regs, func(int, types.Payload, bool) { hit(api) }, nil)
					return
				}
				api.Poll(0, regs, func(int, types.Payload) bool {
					hit(api)
					return true
				}, nil)
			})
		}
	}
	everyoneAtOnce := map[types.ProcessID]int{}
	for p := 0; p < n; p++ {
		everyoneAtOnce[types.ProcessID(p)] = p % 3 // some before their first step
	}
	exits := []struct {
		name    string
		cfg     smmem.Config
		wantErr error
		check   func(*types.RunRecord) bool
		// wantPanic: Run panics with a value naming it, with no record.
		wantPanic string
	}{
		{name: "full-decision",
			cfg:   smmem.Config{NewProtocol: all(func(api smmem.API) { scan(api, n) })},
			check: func(rec *types.RunRecord) bool { return decidedCount(rec) == n }},
		{name: "quiescence",
			cfg:   smmem.Config{NewProtocol: all(func(api smmem.API) { api.WriteValue("v", 0, api.Input()) })},
			check: func(rec *types.RunRecord) bool { return decidedCount(rec) == 0 && !rec.BudgetExhausted }},
		{name: "budget-exhaustion",
			cfg:   smmem.Config{NewProtocol: spinning, MaxOps: 50},
			check: func(rec *types.RunRecord) bool { return rec.BudgetExhausted }},
		{name: "bad-schedule",
			cfg:     smmem.Config{NewProtocol: spinning, Scheduler: &badPick{after: 5, pick: 99}},
			wantErr: smmem.ErrBadSchedule},
		{name: "double-decide",
			cfg: smmem.Config{NewProtocol: all(func(api smmem.API) {
				api.Decide(1)
				if api.ID() == 3 {
					api.Decide(2)
				}
				scanMin(api, n, func(types.Value) {})
			})},
			wantErr: smmem.ErrDoubleDecide},
		{name: "every-crash-the-budget-allows",
			cfg: smmem.Config{NewProtocol: all(func(api smmem.API) { scan(api, n) }), MaxOps: 400,
				Crash: &smmem.ScriptedCrashes{AtOp: everyoneAtOnce}},
			check: func(rec *types.RunRecord) bool { return rec.FaultCount() == n-1 }},
		{name: "poller-budget-exhaustion",
			cfg:   smmem.Config{NewProtocol: neverHits(false), MaxOps: 300},
			check: func(rec *types.RunRecord) bool { return rec.BudgetExhausted && decidedCount(rec) == n-1 }},
		{name: "poller-crashes-mid-poll",
			cfg: smmem.Config{NewProtocol: neverHits(false),
				Crash: &smmem.ScriptedCrashes{AtOp: map[types.ProcessID]int{0: 5}}},
			check: func(rec *types.RunRecord) bool {
				return rec.FaultCount() == 1 && decidedCount(rec) == n-1 && !rec.BudgetExhausted
			}},
		{name: "poller-outlived-by-the-deciders",
			cfg:   smmem.Config{NewProtocol: neverHits(true)},
			check: func(rec *types.RunRecord) bool { return decidedCount(rec) == n && !rec.BudgetExhausted }},
		{name: "simulation-pollers-never-return",
			cfg:   smmem.Config{NewProtocol: simulation},
			check: func(rec *types.RunRecord) bool { return decidedCount(rec) == n }},
		{name: "poll-handler-panics",
			cfg:       smmem.Config{NewProtocol: badHandler(true, func(smmem.API) { panic("handler bug") })},
			wantPanic: "handler bug"},
		{name: "scan-handler-scans",
			cfg:       smmem.Config{NewProtocol: badHandler(false, func(api smmem.API) { after(api, nil) })},
			wantPanic: "smmem: Scan while a Scan is in progress"},
	}
	// No subtests: each would add a goroutine of its own that is still on its
	// way out when the next baseline is read. For the same reason fewer
	// goroutines than before is not a failure, only more.
	for _, e := range exits {
		cfg := e.cfg
		cfg.N, cfg.T, cfg.K = n, n-1, n
		cfg.Inputs, cfg.Seed = testInputs(n, 1), 1
		before := runtime.NumGoroutine()
		var rec *types.RunRecord
		var err error
		r := func() (r any) {
			defer func() { r = recover() }()
			rec, err = smmem.Run(cfg)
			return nil
		}()
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("%s: %d goroutines after Run, %d before", e.name, after, before)
		}
		switch {
		case e.wantPanic != "" || r != nil:
			if e.wantPanic == "" || !strings.Contains(fmt.Sprint(r), e.wantPanic) {
				t.Errorf("%s: Run panicked with %v, want a panic naming %q", e.name, r, e.wantPanic)
			}
		case !errors.Is(err, e.wantErr):
			t.Errorf("%s: error %v, want %v", e.name, err, e.wantErr)
		case err == nil && !e.check(rec):
			t.Errorf("%s: the run did not end the way this case is about: %+v", e.name, rec)
		}
	}
}

// TestProtocolPanicReachesCaller: a bug in one protocol instance is a panic
// on the goroutine that called Run — so it stops one cell of a sweep
// (sweep.Pool re-raises it at Map's caller), not the program.
func TestProtocolPanicReachesCaller(t *testing.T) {
	const n = 5
	bug := errors.New("protocol bug")
	cfg := smmem.Config{
		N: n, T: 2, K: n,
		Inputs: testInputs(n, 1),
		NewProtocol: func(id types.ProcessID) smmem.Protocol {
			return runFunc(func(api smmem.API) {
				if id == 2 {
					api.WriteValue("v", 0, api.Input())
					read(api, smmem.Reg{Name: "v"}, func(types.Payload, bool) { panic(bug) })
					return
				}
				scan(api, n)
			})
		},
		Seed: 1,
	}
	caught := func(f func()) (r any) {
		defer func() { r = recover() }()
		f()
		return nil
	}

	before := runtime.NumGoroutine()
	if r := caught(func() { _, _ = smmem.Run(cfg) }); r != bug {
		t.Fatalf("Run's caller recovered %v, want the protocol's panic value", r)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines after the panic, %d before", after, before)
	}

	r := caught(func() {
		sweep.NewPool(2).Map(4, func(job int) {
			if job == 2 {
				_, _ = smmem.Run(cfg)
			}
		})
	})
	if !strings.Contains(fmt.Sprint(r), bug.Error()) {
		t.Fatalf("Map's caller recovered %v, want the protocol's panic", r)
	}
}
