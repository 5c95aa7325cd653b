package mplive

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"kset/internal/adversary"
	"kset/internal/checker"
	"kset/internal/mpnet"
	"kset/internal/protocols/mp"
	"kset/internal/types"
)

func distinctInputs(n int) []types.Value {
	out := make([]types.Value, n)
	for i := range out {
		out[i] = types.Value(i + 1)
	}
	return out
}

func uniformInputs(n int, v types.Value) []types.Value {
	out := make([]types.Value, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestFloodMinLive(t *testing.T) {
	const n, k, tt = 7, 3, 2
	for seed := uint64(0); seed < 4; seed++ {
		rec, err := Run(Config{
			N: n, T: tt, K: k,
			Inputs:      distinctInputs(n),
			NewProtocol: func(types.ProcessID) mpnet.Protocol { return mp.NewFloodMin() },
			Seed:        seed,
			MaxDelay:    500 * time.Microsecond,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := checker.CheckAll(rec, types.RV1); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func TestFloodMinLiveWithCrashes(t *testing.T) {
	const n, k, tt = 7, 3, 2
	rec, err := Run(Config{
		N: n, T: tt, K: k,
		Inputs:      distinctInputs(n),
		NewProtocol: func(types.ProcessID) mpnet.Protocol { return mp.NewFloodMin() },
		CrashAfterDeliveries: map[types.ProcessID]int{
			1: 0, // crashes before Start
			4: 3,
		},
		Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := checker.CheckAll(rec, types.RV1); err != nil {
		t.Error(err)
	}
	if !rec.Faulty[1] {
		t.Error("process 1 should have crashed")
	}
}

func TestProtocolALiveUniform(t *testing.T) {
	const n, k, tt = 8, 2, 3
	rec, err := Run(Config{
		N: n, T: tt, K: k,
		Inputs:      uniformInputs(n, 5),
		NewProtocol: func(types.ProcessID) mpnet.Protocol { return mp.NewProtocolA() },
		Seed:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := checker.CheckAll(rec, types.RV2); err != nil {
		t.Error(err)
	}
	for i := 0; i < n; i++ {
		if rec.Decided[i] && rec.Decisions[i] != 5 {
			t.Errorf("uniform run: process %d decided %d, want 5", i, rec.Decisions[i])
		}
	}
}

func TestProtocolCLiveWithByzantineEquivocator(t *testing.T) {
	// n=8, t=1, l=1: Protocol C must uphold SV2 against a persona-echo
	// equivocator under real concurrency.
	const n, k, tt = 8, 3, 1
	personas := make(map[types.ProcessID]types.Value, n)
	for i := 0; i < n; i++ {
		personas[types.ProcessID(i)] = types.Value(i%2 + 1)
	}
	rec, err := Run(Config{
		N: n, T: tt, K: k,
		Inputs:      uniformInputs(n, 4),
		NewProtocol: func(types.ProcessID) mpnet.Protocol { return mp.NewProtocolC(1) },
		Byzantine: map[types.ProcessID]mpnet.Protocol{
			7: adversary.NewPersonaEcho(personas, 1),
		},
		Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := checker.CheckAll(rec, types.SV2); err != nil {
		t.Error(err)
	}
	for i := 0; i < n-1; i++ {
		if rec.Decided[i] && rec.Decisions[i] != 4 {
			t.Errorf("SV2: correct %d decided %d, want 4", i, rec.Decisions[i])
		}
	}
}

func TestLiveTimeoutIsReported(t *testing.T) {
	// A protocol that never decides: the run must end at the timeout with
	// BudgetExhausted set and no goroutine leaks (the race detector and
	// -timeout guard the latter).
	rec, err := Run(Config{
		N: 3, T: 0, K: 1,
		Inputs:      distinctInputs(3),
		NewProtocol: func(types.ProcessID) mpnet.Protocol { return silentProto{} },
		Timeout:     50 * time.Millisecond,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.BudgetExhausted {
		t.Error("timeout not reported")
	}
}

type silentProto struct{}

func (silentProto) Start(mpnet.API)                                   {}
func (silentProto) Deliver(mpnet.API, types.ProcessID, types.Payload) {}

func TestLiveConfigValidation(t *testing.T) {
	newProto := func(types.ProcessID) mpnet.Protocol { return silentProto{} }
	if _, err := Run(Config{N: 0, NewProtocol: newProto}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("n=0: %v", err)
	}
	if _, err := Run(Config{
		N: 2, T: 0, K: 1, Inputs: distinctInputs(2), NewProtocol: newProto,
		CrashAfterDeliveries: map[types.ProcessID]int{0: 1},
	}); !errors.Is(err, ErrFaultBudget) {
		t.Errorf("budget: %v", err)
	}
}

func TestLiveMatchesSimulatorOutcomeEnvelope(t *testing.T) {
	// The live runtime and the deterministic simulator must both satisfy
	// the same conditions on the same workload; decisions may differ (the
	// schedules differ) but both must be within the RV1 envelope: decisions
	// are inputs, at most t+1 distinct.
	const n, k, tt = 6, 3, 2
	inputs := distinctInputs(n)
	live, err := Run(Config{
		N: n, T: tt, K: k,
		Inputs:      inputs,
		NewProtocol: func(types.ProcessID) mpnet.Protocol { return mp.NewFloodMin() },
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := mpnet.Run(mpnet.Config{
		N: n, T: tt, K: k,
		Inputs:      inputs,
		NewProtocol: func(types.ProcessID) mpnet.Protocol { return mp.NewFloodMin() },
		Seed:        3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range []*types.RunRecord{live, sim} {
		if err := checker.CheckAll(rec, types.RV1); err != nil {
			t.Errorf("%v: %v", rec.Model, err)
		}
		if got := len(rec.CorrectDecisions()); got > tt+1 {
			t.Errorf("%d distinct decisions, FloodMin guarantees <= t+1", got)
		}
	}
}

// TestLiveRejectsUnappliedFaults: a fault plan entry the run cannot apply is
// a configuration error naming the smallest such id, not a run in which
// every process is correct.
func TestLiveRejectsUnappliedFaults(t *testing.T) {
	const n = 4
	var silent mpnet.Protocol = silentProto{}
	cases := []struct {
		name    string
		byz     map[types.ProcessID]mpnet.Protocol
		crashes map[types.ProcessID]int
		wantID  int
	}{
		{name: "byzantine-id-past-n", byz: map[types.ProcessID]mpnet.Protocol{4: silent}, wantID: 4},
		{name: "byzantine-id-negative", byz: map[types.ProcessID]mpnet.Protocol{-2: silent}, wantID: -2},
		{name: "byzantine-without-strategy", byz: map[types.ProcessID]mpnet.Protocol{3: nil, 2: silent}, wantID: 3},
		{name: "crash-id-past-n", crashes: map[types.ProcessID]int{9: 0}, wantID: 9},
		{name: "crash-point-negative", crashes: map[types.ProcessID]int{2: -1}, wantID: 2},
		{name: "smallest-of-several", crashes: map[types.ProcessID]int{6: 0, 5: -1, 4: 2, 1: -3, 9: 3}, wantID: 1},
	}
	for _, c := range cases {
		// Several times, so a map order that leaks into the message shows.
		for try := 0; try < 10; try++ {
			_, err := Run(Config{
				N: n, T: n - 1, K: 1, Inputs: distinctInputs(n),
				NewProtocol: func(types.ProcessID) mpnet.Protocol { return silentProto{} },
				Byzantine:   c.byz, CrashAfterDeliveries: c.crashes,
				Timeout: time.Second,
			})
			if !errors.Is(err, ErrBadConfig) || !strings.Contains(err.Error(), fmt.Sprintf("id %d ", c.wantID)) {
				t.Fatalf("%s: error %v, want %v naming id %d", c.name, err, ErrBadConfig, c.wantID)
			}
		}
	}
}
