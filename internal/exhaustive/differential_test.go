package exhaustive

import (
	"slices"
	"testing"

	"kset/internal/mpnet"
	"kset/internal/prng"
	"kset/internal/protocols/mp"
	"kset/internal/theory"
	"kset/internal/trace"
	"kset/internal/types"
)

// TestSimulatorDecisionsWithinAnalyticalMenus cross-validates the event
// simulator against the analytical model: every decision a real run of a
// one-shot protocol produces must be in the exhaustive verifier's menu for
// that process (the set of decisions reachable by SOME schedule). A decision
// outside the menu would mean the simulator realizes behaviours the model
// says are impossible — or vice versa.
func TestSimulatorDecisionsWithinAnalyticalMenus(t *testing.T) {
	const n, tt = 6, 2
	rng := prng.New(0xD1FF)
	for _, proto := range oneShot {
		factory, err := trace.ProtocolSpec{Proto: proto}.MPFactory()
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 40; round++ {
			inputs := make([]types.Value, n)
			for i := range inputs {
				inputs[i] = types.Value(rng.Intn(4) + 1)
			}
			cfg := mpnet.Config{
				N: n, T: tt, K: n, // k is irrelevant to menus
				Inputs:      inputs,
				NewProtocol: factory,
				Seed:        rng.Uint64(),
			}
			if round%2 == 1 {
				cfg.Crash = &types.RandomCrashes{Rate: 0.05, Seed: rng.Uint64()}
			}
			rec, err := mpnet.Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			menus := menusFor(t, proto, inputs, n, tt)
			for p := 0; p < n; p++ {
				if !rec.Decided[p] {
					continue
				}
				if !slices.Contains(menus[p], rec.Decisions[p]) {
					t.Fatalf("%s: process %d decided %d, not in analytical menu %v (inputs %v)",
						proto, p, rec.Decisions[p], menus[p], inputs)
				}
			}
		}
	}
}

// menusFor computes every process's decision menu for an input vector
// through the driver.
func menusFor(t *testing.T, proto theory.ProtocolID, inputs []types.Value, n, tt int) [][]types.Value {
	t.Helper()
	v, err := newVerifier(proto, types.RV1, n, n, tt, 0) // k and validity are irrelevant to menus
	if err != nil {
		t.Fatal(err)
	}
	copy(v.inputs, inputs)
	if err := v.computeMenus(); err != nil {
		t.Fatal(err)
	}
	return v.menus
}

// TestMenusAreSchedulerReachable is the converse direction, spot-checked:
// for a fixed small workload, scheduler seeds realize several distinct menu
// entries — the analytical menus are not vacuously large.
func TestMenusAreSchedulerReachable(t *testing.T) {
	const n, tt = 5, 2
	inputs := []types.Value{3, 1, 4, 1, 5}
	menu := menusFor(t, theory.ProtoFloodMin, inputs, n, tt)[0]
	seen := make(map[types.Value]struct{})
	for seed := uint64(1); seed <= 200 && len(seen) < len(menu); seed++ {
		rec, err := mpnet.Run(mpnet.Config{
			N: n, T: tt, K: n,
			Inputs:      inputs,
			NewProtocol: func(types.ProcessID) mpnet.Protocol { return mp.NewFloodMin() },
			Seed:        seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rec.Decided[0] {
			seen[rec.Decisions[0]] = struct{}{}
		}
	}
	if len(seen) < 2 {
		t.Errorf("only %d of %d menu entries realized across seeds: %v of %v", len(seen), len(menu), seen, menu)
	}
	for d := range seen {
		if !slices.Contains(menu, d) {
			t.Errorf("realized decision %d missing from menu %v", d, menu)
		}
	}
}
