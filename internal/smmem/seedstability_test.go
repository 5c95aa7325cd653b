package smmem_test

// Seed-stability golden test for the shared-memory runtime: one loop that
// runs one process step at a time must make every run a pure function of
// the seed. Running the same configuration twice must produce a
// byte-identical operation trace and identical decisions — the runtime
// counterpart of ksetlint's determinism analyzer.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"kset/internal/protocols/sm"
	"kset/internal/smmem"
	"kset/internal/types"
)

// smTranscript runs one configured simulation and renders every trace
// event plus the final record into one deterministic string.
func smTranscript(t *testing.T, scheduler smmem.Scheduler, seed uint64) string {
	t.Helper()
	n := 6
	ins := make([]types.Value, n)
	for i := range ins {
		ins[i] = types.Value(i % 4)
	}
	var b strings.Builder
	rec, err := smmem.Run(smmem.Config{
		N: n, T: 2, K: 3,
		Inputs:      ins,
		NewProtocol: func(types.ProcessID) smmem.Protocol { return sm.NewProtocolE() },
		Crash:       &types.RandomCrashes{Rate: 0.01, Seed: seed + 1},
		Scheduler:   scheduler,
		Seed:        seed,
		Trace:       func(ev smmem.TraceEvent) { fmt.Fprintln(&b, ev) },
	})
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	fmt.Fprintf(&b, "record: %+v\n", rec)
	return b.String()
}

func TestSeedStability(t *testing.T) {
	schedulers := map[string]func() smmem.Scheduler{
		"fair-random": func() smmem.Scheduler { return smmem.FairRandom{} },
		"round-robin": func() smmem.Scheduler { return &smmem.RoundRobin{} },
	}
	for name, newSched := range schedulers {
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 5; seed++ {
				first := smTranscript(t, newSched(), seed)
				second := smTranscript(t, newSched(), seed)
				if first != second {
					t.Fatalf("seed %d: traces differ\n--- first ---\n%s\n--- second ---\n%s",
						seed, first, second)
				}
			}
		})
	}
}

// TestSeedStabilityDistinguishesSeeds ensures the transcript actually
// captures the run: some seed pair must differ, or the golden comparison
// above is vacuous.
func TestSeedStabilityDistinguishesSeeds(t *testing.T) {
	a := smTranscript(t, smmem.FairRandom{}, 1)
	for seed := uint64(2); seed <= 8; seed++ {
		if smTranscript(t, smmem.FairRandom{}, seed) != a {
			return
		}
	}
	t.Fatal("transcripts identical across all seeds; trace capture is broken")
}

// TestDecisionStability re-checks determinism at the record level,
// independent of the trace rendering.
func TestDecisionStability(t *testing.T) {
	run := func(seed uint64) *types.RunRecord {
		n := 5
		ins := make([]types.Value, n)
		for i := range ins {
			ins[i] = types.Value(i)
		}
		rec, err := smmem.Run(smmem.Config{
			N: n, T: 1, K: 2,
			Inputs:      ins,
			NewProtocol: func(types.ProcessID) smmem.Protocol { return sm.NewProtocolE() },
			Seed:        seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	for seed := uint64(20); seed < 24; seed++ {
		if a, b := run(seed), run(seed); !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: records differ:\n%+v\n%+v", seed, a, b)
		}
	}
}
