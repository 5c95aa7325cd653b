package smmem

import (
	"errors"
	"testing"

	"kset/internal/types"
)

// writerReader writes its input, then scans everyone's register until one
// scan has seen quorum written registers, then decides the minimum value
// seen.
type writerReader struct {
	quorum int
}

func (w *writerReader) Start(api API) {
	api.WriteValue("v", 0, api.Input())
	regs := make([]Reg, api.N())
	for q := range regs {
		regs[q] = Reg{Owner: types.ProcessID(q), Name: "v"}
	}
	var minV types.Value
	count := 0
	visit := func(_ int, p types.Payload, ok bool) {
		if ok {
			if count == 0 || p.Value < minV {
				minV = p.Value
			}
			count++
		}
	}
	var scanned func()
	scanned = func() {
		if count >= w.quorum {
			api.Decide(minV)
			return
		}
		count = 0
		api.Scan(regs, visit, scanned)
	}
	api.Scan(regs, visit, scanned)
}

// spin reads r for ever.
func spin(api API, r Reg) {
	api.Scan([]Reg{r}, func(int, types.Payload, bool) {}, func() { spin(api, r) })
}

func distinctInputs(n int) []types.Value {
	out := make([]types.Value, n)
	for i := range out {
		out[i] = types.Value(i + 1)
	}
	return out
}

func TestRunWriteScanDecide(t *testing.T) {
	const n = 5
	rec, err := Run(Config{
		N: n, T: 1, K: 2,
		Inputs:      distinctInputs(n),
		NewProtocol: func(types.ProcessID) Protocol { return &writerReader{quorum: n} },
		Seed:        1,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 0; i < n; i++ {
		if !rec.Decided[i] {
			t.Fatalf("process %d did not decide", i)
		}
		if rec.Decisions[i] != 1 {
			t.Errorf("process %d decided %d, want global min 1", i, rec.Decisions[i])
		}
	}
	if rec.BudgetExhausted {
		t.Error("budget exhausted on a trivial run")
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	run := func() string {
		rec, err := Run(Config{
			N: 6, T: 2, K: 3,
			Inputs:      distinctInputs(6),
			NewProtocol: func(types.ProcessID) Protocol { return &writerReader{quorum: 4} },
			Seed:        77,
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return rec.String()
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same seed, different runs:\n%s\n%s", a, b)
	}
}

func TestCrashedProcessTakesNoSteps(t *testing.T) {
	var opsBy0 int
	rec, err := Run(Config{
		N: 4, T: 1, K: 2,
		Inputs:      distinctInputs(4),
		NewProtocol: func(types.ProcessID) Protocol { return &writerReader{quorum: 3} },
		Crash:       types.ScriptedCrashes{{Proc: 0, Kind: types.CrashAtOp, Index: 0}},
		Seed:        3,
		Trace: func(ev TraceEvent) {
			if (ev.Type == EvRead || ev.Type == EvWrite) && ev.Proc == 0 {
				opsBy0++
			}
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if opsBy0 != 0 {
		t.Errorf("crashed-before-first-op process performed %d ops", opsBy0)
	}
	if !rec.Faulty[0] || rec.Decided[0] {
		t.Error("process 0 should be faulty and undecided")
	}
	for i := 1; i < 4; i++ {
		if !rec.Decided[i] {
			t.Errorf("correct process %d did not decide", i)
		}
	}
}

func TestSingleWriterEnforcedByConstruction(t *testing.T) {
	// Process 1 writes "v"; process 0's register "v" must stay unwritten:
	// the API offers no way to write another process's register, so a read
	// of (0, "v") by anyone before 0 writes returns ok=false.
	sawForeign := false
	_, err := Run(Config{
		N: 2, T: 0, K: 1,
		Inputs: distinctInputs(2),
		NewProtocol: func(id types.ProcessID) Protocol {
			return protoFunc(func(api API) {
				if api.ID() == 1 {
					api.WriteValue("v", 0, 42)
				}
				api.Scan([]Reg{{Name: "v"}}, func(_ int, _ types.Payload, ok bool) {
					sawForeign = sawForeign || ok
				}, func() { api.Decide(api.Input()) })
			})
		},
		Seed: 9,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if sawForeign {
		t.Error("register (p1, v) readable although p1 never wrote it")
	}
}

type protoFunc func(API)

func (f protoFunc) Start(api API) { f(api) }

func TestBudgetExhaustionRecorded(t *testing.T) {
	// A protocol that spins forever without deciding.
	rec, err := Run(Config{
		N: 2, T: 0, K: 1,
		Inputs: distinctInputs(2),
		NewProtocol: func(types.ProcessID) Protocol {
			return protoFunc(func(api API) { spin(api, Reg{Name: "v"}) })
		},
		MaxOps: 100,
		Seed:   5,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rec.BudgetExhausted {
		t.Error("budget exhaustion not recorded")
	}
}

func TestDoubleDecideIsAnError(t *testing.T) {
	_, err := Run(Config{
		N: 1, T: 0, K: 1,
		Inputs: distinctInputs(1),
		NewProtocol: func(types.ProcessID) Protocol {
			return protoFunc(func(api API) {
				api.Decide(1)
				api.Decide(2)
			})
		},
		Seed: 5,
	})
	if !errors.Is(err, ErrDoubleDecide) {
		t.Errorf("err = %v, want ErrDoubleDecide", err)
	}
}

func TestHoldSchedulerDelaysHeldProcesses(t *testing.T) {
	// Processes 2,3 are held until 0,1 decide. 0,1 need only each other's
	// registers (quorum 2), so they decide first; every op by 2 or 3 must
	// come after both decisions.
	var order []types.ProcessID
	rec, err := Run(Config{
		N: 4, T: 2, K: 2,
		Inputs:      distinctInputs(4),
		NewProtocol: func(types.ProcessID) Protocol { return &writerReader{quorum: 2} },
		Scheduler:   NewHold(4, []types.ProcessID{2, 3}, []types.ProcessID{0, 1}),
		Seed:        21,
		Trace: func(ev TraceEvent) {
			if ev.Type == EvRead || ev.Type == EvWrite {
				order = append(order, ev.Proc)
			}
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rec.Decided[0] || !rec.Decided[1] {
		t.Fatal("watched processes did not decide")
	}
	// Find the first op by a held process; by then 0 and 1 must have been
	// able to decide using only their own ops. We verify no held op occurs
	// among the first few ops (0 and 1 need at least 2 ops each).
	for i, pid := range order {
		if pid >= 2 && i < 4 {
			t.Fatalf("held process %v took step %d, before watch could decide", pid, i)
		}
	}
}

func TestByzantineLimitedToOwnRegisters(t *testing.T) {
	// A Byzantine process can spam its own registers but cannot stop the
	// correct majority from deciding.
	rec, err := Run(Config{
		N: 4, T: 1, K: 2,
		Inputs:      distinctInputs(4),
		NewProtocol: func(types.ProcessID) Protocol { return &writerReader{quorum: 3} },
		Byzantine: map[types.ProcessID]Protocol{
			3: protoFunc(func(api API) {
				i := 0
				var spam func()
				spam = func() {
					api.WriteValue("v", 0, types.Value(1000+i%7))
					i++
					api.Scan(nil, nil, spam)
				}
				spam()
			}),
		},
		Seed: 31,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 0; i < 3; i++ {
		if !rec.Decided[i] {
			t.Errorf("correct process %d did not decide despite Byzantine spam", i)
		}
	}
	if !rec.Faulty[3] {
		t.Error("Byzantine process not marked faulty")
	}
}
