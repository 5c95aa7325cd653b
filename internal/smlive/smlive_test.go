package smlive

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"kset/internal/adversary"
	"kset/internal/checker"
	"kset/internal/protocols/sm"
	"kset/internal/smmem"
	"kset/internal/types"

	mpproto "kset/internal/protocols/mp"
)

func uniformInputs(n int, v types.Value) []types.Value {
	out := make([]types.Value, n)
	for i := range out {
		out[i] = v
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

func TestProtocolELive(t *testing.T) {
	const n = 6
	for seed := uint64(0); seed < 4; seed++ {
		rec, err := Run(Config{
			N: n, T: n - 1, K: 2,
			Inputs:      uniformInputs(n, 9),
			NewProtocol: func(types.ProcessID) smmem.Protocol { return sm.NewProtocolE() },
			Seed:        seed,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := checker.CheckAll(rec, types.RV2); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		for i := 0; i < n; i++ {
			if rec.Decided[i] && rec.Decisions[i] != 9 {
				t.Errorf("seed %d: uniform run, %d decided %d", seed, i, rec.Decisions[i])
			}
		}
	}
}

func TestProtocolFLiveWithCrashes(t *testing.T) {
	const n, tt = 8, 2
	rec, err := Run(Config{
		N: n, T: tt, K: tt + 2,
		Inputs:      distinctInputs(n),
		NewProtocol: func(types.ProcessID) smmem.Protocol { return sm.NewProtocolF() },
		CrashAfterOps: map[types.ProcessID]int{
			1: 0, // before its write
			5: 3, // mid-scan
		},
		Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := checker.CheckAll(rec, types.SV2); err != nil {
		t.Error(err)
	}
	if !rec.Faulty[1] || !rec.Faulty[5] {
		t.Error("crash targets not marked faulty")
	}
}

func TestSimulationLive(t *testing.T) {
	// FloodMin carried to live shared memory by SIMULATION: real concurrent
	// register polling.
	const n, k, tt = 5, 3, 2
	rec, err := Run(Config{
		N: n, T: tt, K: k,
		Inputs: distinctInputs(n),
		NewProtocol: func(types.ProcessID) smmem.Protocol {
			return sm.NewSimulation(mpproto.NewFloodMin())
		},
		Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := checker.CheckAll(rec, types.RV1); err != nil {
		t.Error(err)
	}
	if got := len(rec.CorrectDecisions()); got > tt+1 {
		t.Errorf("%d distinct decisions, FloodMin guarantees <= t+1", got)
	}
}

func TestByzantineGarbageWriterLive(t *testing.T) {
	const n = 6
	rec, err := Run(Config{
		N: n, T: 1, K: 2,
		Inputs:      uniformInputs(n, 4),
		NewProtocol: func(types.ProcessID) smmem.Protocol { return sm.NewProtocolE() },
		Byzantine: map[types.ProcessID]smmem.Protocol{
			2: adversary.NewGarbageWriter(32),
		},
		Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := checker.CheckAll(rec, types.WV2); err != nil {
		t.Error(err)
	}
	if !rec.Faulty[2] {
		t.Error("Byzantine process not marked faulty")
	}
}

func TestLiveTimeout(t *testing.T) {
	// A protocol that never decides: the run ends at the timeout.
	rec, err := Run(Config{
		N: 2, T: 0, K: 1,
		Inputs: uniformInputs(2, 1),
		NewProtocol: func(types.ProcessID) smmem.Protocol {
			return spinner{}
		},
		Timeout: 50 * time.Millisecond,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.BudgetExhausted {
		t.Error("timeout not reported")
	}
}

type spinner struct{}

func (spinner) Run(api smmem.API) {
	for {
		_, _ = api.ReadValue(0, "v")
	}
}

func TestLiveValidation(t *testing.T) {
	newProto := func(types.ProcessID) smmem.Protocol { return spinner{} }
	if _, err := Run(Config{N: 0, NewProtocol: newProto}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("n=0: %v", err)
	}
	if _, err := Run(Config{
		N: 2, T: 0, K: 1, Inputs: uniformInputs(2, 1), NewProtocol: newProto,
		CrashAfterOps: map[types.ProcessID]int{0: 1},
	}); !errors.Is(err, ErrFaultBudget) {
		t.Errorf("budget: %v", err)
	}
}

// TestLiveRejectsUnappliedFaults: a fault plan entry the run cannot apply is
// a configuration error naming the smallest such id, not a run in which
// every process is correct.
func TestLiveRejectsUnappliedFaults(t *testing.T) {
	const n = 4
	garbage := adversary.NewGarbageWriter(8)
	cases := []struct {
		name    string
		byz     map[types.ProcessID]smmem.Protocol
		crashes map[types.ProcessID]int
		wantID  int
	}{
		{name: "byzantine-id-past-n", byz: map[types.ProcessID]smmem.Protocol{99: garbage}, wantID: 99},
		{name: "byzantine-id-negative", byz: map[types.ProcessID]smmem.Protocol{-2: garbage, 3: nil}, wantID: -2},
		{name: "byzantine-without-strategy", byz: map[types.ProcessID]smmem.Protocol{1: nil, 2: garbage}, wantID: 1},
		{name: "crash-id-past-n", crashes: map[types.ProcessID]int{7: 0}, wantID: 7},
		{name: "crash-point-negative", crashes: map[types.ProcessID]int{1: -5}, wantID: 1},
		{name: "smallest-of-several", crashes: map[types.ProcessID]int{6: 0, 5: -1, 4: 2, -1: 0, 9: 3}, wantID: -1},
	}
	for _, c := range cases {
		// Several times, so a map order that leaks into the message shows.
		for try := 0; try < 10; try++ {
			_, err := Run(Config{
				N: n, T: n - 1, K: 1, Inputs: uniformInputs(n, 1),
				NewProtocol: func(types.ProcessID) smmem.Protocol { return spinner{} },
				Byzantine:   c.byz, CrashAfterOps: c.crashes,
				Timeout: time.Second,
			})
			if !errors.Is(err, ErrBadConfig) || !strings.Contains(err.Error(), fmt.Sprintf("id %d ", c.wantID)) {
				t.Fatalf("%s: error %v, want %v naming id %d", c.name, err, ErrBadConfig, c.wantID)
			}
		}
	}
}
