package kset_test

import (
	"testing"

	"kset"
	"kset/internal/checker"
	"kset/internal/cluster"
	"kset/internal/mpnet"
	"kset/internal/protocols/mp"
	"kset/internal/protocols/sm"
	"kset/internal/smmem"
	"kset/internal/theory"
	"kset/internal/types"
	"kset/internal/wire"
)

// TestSameProtocolAcrossThreeSubstrates runs FloodMin on the deterministic
// simulator, on shared memory via SIMULATION, and on the loopback TCP
// cluster with one node crashed, on the same workload. All three must
// satisfy SC(k, t, RV1); decisions may differ because schedules differ, but
// every decision must be within FloodMin's envelope: one of the t+1 smallest
// inputs.
func TestSameProtocolAcrossThreeSubstrates(t *testing.T) {
	const n, k, tt = 6, 3, 2
	inputs := []types.Value{40, 10, 60, 20, 50, 30}
	smallest := map[types.Value]bool{10: true, 20: true, 30: true} // t+1 = 3 smallest

	check := func(name string, rec *types.RunRecord) {
		t.Helper()
		if err := checker.CheckAll(rec, types.RV1); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		for _, v := range rec.CorrectDecisions() {
			if !smallest[v] {
				t.Errorf("%s: decision %d outside the t+1 smallest inputs", name, v)
			}
		}
	}

	sim, err := mpnet.Run(mpnet.Config{
		N: n, T: tt, K: k,
		Inputs:      inputs,
		NewProtocol: func(types.ProcessID) mpnet.Protocol { return mp.NewFloodMin() },
		Seed:        9,
	})
	if err != nil {
		t.Fatal(err)
	}
	check("simulator", sim)

	shared, err := smmem.Run(smmem.Config{
		N: n, T: tt, K: k,
		Inputs: inputs,
		NewProtocol: func(types.ProcessID) smmem.Protocol {
			return sm.NewSimulation(mp.NewFloodMin())
		},
		Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	check("simulation-over-shared-memory", shared)

	lb, err := cluster.StartLoopback(cluster.LoopbackConfig{N: n, K: k, T: tt, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer lb.Close()
	lb.Crash(n - 1)
	live, err := lb.RunInstance(wire.Start{Instance: 1, K: k, T: tt, Proto: uint8(theory.ProtoFloodMin)}, inputs)
	if err != nil {
		t.Fatal(err)
	}
	check("loopback-cluster", live)
}

// TestSolveAcrossAllModels drives the public API once per model at a point
// solvable everywhere, checking the returned record each time.
func TestSolveAcrossAllModels(t *testing.T) {
	const n = 8
	inputs := make([]kset.Value, n)
	for i := range inputs {
		inputs[i] = 7 // uniform: triggers the value-anchored validities
	}
	cases := []struct {
		model kset.Model
		v     kset.Validity
		k, t  int
	}{
		{kset.MPCR, kset.RV1, 3, 2},
		{kset.MPByz, kset.WV2, 4, 2},
		{kset.SMCR, kset.RV2, 2, 7},
		{kset.SMByz, kset.WV2, 2, 7},
	}
	for _, c := range cases {
		rec, err := kset.Solve(kset.SolveConfig{
			Model: c.model, Validity: c.v,
			N: n, K: c.k, T: c.t,
			Inputs: inputs,
			Seed:   13,
		})
		if err != nil {
			t.Errorf("%v/%v: %v", c.model, c.v, err)
			continue
		}
		// Uniform failure-free runs must decide the common input.
		for i := 0; i < n; i++ {
			if rec.Decided[i] && rec.Decisions[i] != 7 {
				t.Errorf("%v/%v: process %d decided %d, want 7", c.model, c.v, i, rec.Decisions[i])
			}
		}
	}
}

// TestDecisionLatencyMonotoneInProtocolDepth: echo-based protocols need
// strictly more events before the first decision than single-broadcast
// protocols on the same workload — the latency data distinguishes one-shot
// from multi-phase protocols.
func TestDecisionLatencyMonotoneInProtocolDepth(t *testing.T) {
	const n, k, tt = 8, 3, 1
	inputs := make([]types.Value, n)
	for i := range inputs {
		inputs[i] = 5
	}
	first := func(factory func() mpnet.Protocol) int {
		rec, err := mpnet.Run(mpnet.Config{
			N: n, T: tt, K: k,
			Inputs:      inputs,
			NewProtocol: func(types.ProcessID) mpnet.Protocol { return factory() },
			Seed:        21,
		})
		if err != nil {
			t.Fatal(err)
		}
		lats, ok := rec.DecisionLatencies()
		if !ok || len(lats) == 0 {
			t.Fatal("no latency data")
		}
		return lats[0]
	}
	oneShot := first(func() mpnet.Protocol { return mp.NewProtocolA() })
	echoed := first(func() mpnet.Protocol { return mp.NewProtocolC(1) })
	if echoed <= oneShot {
		t.Errorf("Protocol C first decision at event %d, Protocol A at %d: echo protocol should be slower",
			echoed, oneShot)
	}
}

// TestSeedReplayExactness: the full record of a deterministic run replays
// bit-for-bit from its seed, including latencies and message counts.
func TestSeedReplayExactness(t *testing.T) {
	cfg := mpnet.Config{
		N: 7, T: 2, K: 3,
		Inputs:      []types.Value{3, 1, 4, 1, 5, 9, 2},
		NewProtocol: func(types.ProcessID) mpnet.Protocol { return mp.NewFloodMin() },
		Crash:       types.ScriptedCrashes{{Proc: 0, Kind: types.CrashAtSend, Index: 3}},
		Seed:        31337,
	}
	a, err := mpnet.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mpnet.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("replay mismatch:\n%s\n%s", a, b)
	}
	for i := 0; i < a.N; i++ {
		if a.DecidedAtEvent[i] != b.DecidedAtEvent[i] {
			t.Fatalf("latency mismatch at %d: %d vs %d", i, a.DecidedAtEvent[i], b.DecidedAtEvent[i])
		}
	}
	if a.Messages != b.Messages || a.Events != b.Events {
		t.Fatal("counter mismatch between replays")
	}
}
