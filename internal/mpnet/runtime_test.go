package mpnet

import (
	"errors"
	"strings"
	"testing"

	"kset/internal/prng"
	"kset/internal/types"
)

// broadcaster is a minimal protocol: broadcast input, decide after hearing
// from quorum distinct processes (including itself).
type broadcaster struct {
	quorum int
	seen   map[types.ProcessID]struct{}
}

func (b *broadcaster) Start(api API) {
	b.seen = make(map[types.ProcessID]struct{})
	api.Broadcast(types.Payload{Kind: types.KindInput, Value: api.Input()})
}

func (b *broadcaster) Deliver(api API, from types.ProcessID, p types.Payload) {
	b.seen[from] = struct{}{}
	if !api.HasDecided() && len(b.seen) >= b.quorum {
		api.Decide(api.Input())
	}
}

func inputs(vs ...int) []types.Value {
	out := make([]types.Value, len(vs))
	for i, v := range vs {
		out[i] = types.Value(v)
	}
	return out
}

func distinctInputs(n int) []types.Value {
	out := make([]types.Value, n)
	for i := range out {
		out[i] = types.Value(i + 1)
	}
	return out
}

func TestRunBroadcastQuorum(t *testing.T) {
	const n = 5
	rec, err := Run(Config{
		N: n, T: 1, K: 2,
		Inputs:      distinctInputs(n),
		NewProtocol: func(types.ProcessID) Protocol { return &broadcaster{quorum: n} },
		Seed:        42,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 0; i < n; i++ {
		if !rec.Decided[i] {
			t.Errorf("process %d did not decide", i)
		}
		if rec.Decisions[i] != rec.Inputs[i] {
			t.Errorf("process %d decided %d, want its input %d", i, rec.Decisions[i], rec.Inputs[i])
		}
	}
	if rec.Messages != n*n {
		t.Errorf("messages = %d, want %d", rec.Messages, n*n)
	}
	if rec.BudgetExhausted {
		t.Error("budget exhausted on a trivial run")
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	cfg := Config{
		N: 7, T: 2, K: 3,
		Inputs:      distinctInputs(7),
		NewProtocol: func(types.ProcessID) Protocol { return &broadcaster{quorum: 5} },
		Crash:       &types.RandomCrashes{Rate: 0.05, Seed: 99},
	}
	run := func(seed uint64) string {
		c := cfg
		c.Seed = seed
		c.Crash = &types.RandomCrashes{Rate: 0.05, Seed: seed + 1}
		rec, err := Run(c)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return rec.String()
	}
	a, b := run(7), run(7)
	if a != b {
		t.Errorf("same seed, different runs:\n%s\n%s", a, b)
	}
}

func TestRunQuiescenceWithoutDecisionIsRecorded(t *testing.T) {
	// Quorum n+1 is unreachable: the run goes quiescent with nobody decided.
	rec, err := Run(Config{
		N: 3, T: 1, K: 2,
		Inputs:      distinctInputs(3),
		NewProtocol: func(types.ProcessID) Protocol { return &broadcaster{quorum: 4} },
		Seed:        1,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 0; i < 3; i++ {
		if rec.Decided[i] {
			t.Errorf("process %d decided with unreachable quorum", i)
		}
	}
}

func TestScriptedCrashBeforeStart(t *testing.T) {
	rec, err := Run(Config{
		N: 4, T: 1, K: 2,
		Inputs:      distinctInputs(4),
		NewProtocol: func(types.ProcessID) Protocol { return &broadcaster{quorum: 3} },
		Crash:       types.ScriptedCrashes{{Proc: 0, Kind: types.CrashAtEvent, Index: 0}},
		Seed:        3,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !rec.Faulty[0] {
		t.Error("process 0 should be crashed")
	}
	if rec.Decided[0] {
		t.Error("crashed-before-start process decided")
	}
	for i := 1; i < 4; i++ {
		if !rec.Decided[i] {
			t.Errorf("correct process %d did not decide (quorum 3 of 3 correct)", i)
		}
	}
}

func TestScriptedCrashMidBroadcastTruncates(t *testing.T) {
	// Process 0 crashes after its first transmission: only one recipient
	// (possibly itself) ever sees its message.
	var delivered int
	_, err := Run(Config{
		N: 4, T: 1, K: 2,
		Inputs:      distinctInputs(4),
		NewProtocol: func(types.ProcessID) Protocol { return &broadcaster{quorum: 3} },
		Crash:       types.ScriptedCrashes{{Proc: 0, Kind: types.CrashAtSend, Index: 1}},
		Seed:        5,
		Trace: func(ev TraceEvent) {
			if ev.Type == EvDeliver && ev.Peer == 0 {
				delivered++
			}
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if delivered > 1 {
		t.Errorf("process 0's truncated broadcast was delivered %d times, want <= 1", delivered)
	}
}

func TestFaultBudgetEnforced(t *testing.T) {
	// Adversary wants to crash everyone; the runtime must stop at t.
	rec, err := Run(Config{
		N: 6, T: 2, K: 3,
		Inputs:      distinctInputs(6),
		NewProtocol: func(types.ProcessID) Protocol { return &broadcaster{quorum: 4} },
		Crash:       &types.RandomCrashes{Rate: 1.0, Seed: 11},
		Seed:        11,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if f := rec.FaultCount(); f > 2 {
		t.Errorf("fault count %d exceeds t=2", f)
	}
}

type doubleDecider struct{}

func (doubleDecider) Start(api API) {
	api.Decide(1)
	api.Decide(2)
}
func (doubleDecider) Deliver(API, types.ProcessID, types.Payload) {}

func TestDoubleDecideIsAnError(t *testing.T) {
	_, err := Run(Config{
		N: 2, T: 0, K: 1,
		Inputs:      inputs(1, 2),
		NewProtocol: func(types.ProcessID) Protocol { return doubleDecider{} },
		Seed:        1,
	})
	if !errors.Is(err, ErrDoubleDecide) {
		t.Errorf("err = %v, want ErrDoubleDecide", err)
	}
}

// outOfRange sends to each of -1 and n, ids no process has.
type outOfRange struct{ n int }

func (o outOfRange) Start(api API) {
	api.Send(-1, types.Payload{})
	api.Send(types.ProcessID(o.n), types.Payload{})
}
func (outOfRange) Deliver(API, types.ProcessID, types.Payload) {}

func TestBadDestinationIsAnError(t *testing.T) {
	_, err := Run(Config{
		N: 3, T: 0, K: 1,
		Inputs:      inputs(1, 2, 3),
		NewProtocol: func(types.ProcessID) Protocol { return outOfRange{n: 3} },
		Seed:        1,
	})
	if !errors.Is(err, ErrBadDestination) {
		t.Fatalf("err = %v, want ErrBadDestination", err)
	}
	if !strings.Contains(err.Error(), "sent to -1") {
		t.Errorf("err = %v, want the first bad send named", err)
	}
}

func TestConfigValidation(t *testing.T) {
	newProto := func(types.ProcessID) Protocol { return doubleDecider{} }
	cases := []struct {
		name string
		cfg  Config
		want error
	}{
		{"zero n", Config{N: 0, K: 1, NewProtocol: newProto}, ErrBadConfig},
		{"wrong inputs", Config{N: 3, K: 1, Inputs: inputs(1), NewProtocol: newProto}, ErrBadConfig},
		{"nil protocol", Config{N: 1, K: 1, Inputs: inputs(1)}, ErrBadConfig},
		{"negative t", Config{N: 1, T: -1, K: 1, Inputs: inputs(1), NewProtocol: newProto}, ErrBadConfig},
		{"too many byz", Config{
			N: 2, T: 0, K: 1, Inputs: inputs(1, 2), NewProtocol: newProto,
			Byzantine: map[types.ProcessID]Protocol{0: doubleDecider{}},
		}, ErrFaultBudget},
		{"negative MaxEvents", Config{N: 1, K: 1, Inputs: inputs(1), NewProtocol: newProto, MaxEvents: -1}, ErrBadConfig},
		{"nil Byzantine strategy", Config{
			N: 2, T: 1, K: 1, Inputs: inputs(1, 2), NewProtocol: newProto,
			Byzantine: map[types.ProcessID]Protocol{1: nil},
		}, ErrBadConfig},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Run(tc.cfg); !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestGroupGateIsolatesGroups(t *testing.T) {
	// Two groups of 2; quorum 2 means each group can decide on its own.
	// The gate must hold cross-group messages until the recipient group has
	// decided, so the first decision in each group must happen having seen
	// only intra-group senders.
	const n = 4
	groups := [][]types.ProcessID{{0, 1}, {2, 3}}
	var crossBeforeDecide bool
	decided := make(map[types.ProcessID]bool)
	group := map[types.ProcessID]int{0: 0, 1: 0, 2: 1, 3: 1}
	_, err := Run(Config{
		N: n, T: 2, K: 2,
		Inputs:      distinctInputs(n),
		NewProtocol: func(types.ProcessID) Protocol { return &broadcaster{quorum: 2} },
		Scheduler:   NewGroupGate(n, groups),
		Seed:        13,
		Trace: func(ev TraceEvent) {
			switch ev.Type {
			case EvDecide:
				decided[ev.Proc] = true
			case EvDeliver:
				if group[ev.Proc] != group[ev.Peer] && !decided[ev.Proc] {
					crossBeforeDecide = true
				}
			}
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if crossBeforeDecide {
		t.Error("cross-group message delivered to an undecided process")
	}
}

func TestFIFODeliversInSendOrder(t *testing.T) {
	var order []int
	_, err := Run(Config{
		N: 3, T: 0, K: 1,
		Inputs:      distinctInputs(3),
		NewProtocol: func(types.ProcessID) Protocol { return &broadcaster{quorum: 3} },
		Scheduler:   FIFO{},
		Seed:        1,
		Trace: func(ev TraceEvent) {
			if ev.Type == EvDeliver && ev.Proc != ev.Peer {
				order = append(order, int(ev.Peer)*10+int(ev.Proc))
			}
		},
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(order) != 6 {
		t.Fatalf("delivered %d cross-process messages, want 6", len(order))
	}
	// Process 0 broadcasts first, then 1, then 2: all of 0's messages
	// must be delivered before any of 2's.
	for i, v := range order {
		if v/10 == 2 {
			for _, w := range order[i:] {
				if w/10 == 0 {
					t.Fatalf("FIFO delivered %v out of send order", order)
				}
			}
			break
		}
	}
}

func TestPRNGDeterminism(t *testing.T) {
	a, b := prng.New(123), prng.New(123)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverge at %d", i)
		}
	}
}
