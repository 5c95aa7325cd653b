package mpnet_test

// Seed-stability golden test: the runtime counterpart of ksetlint's
// determinism analyzer. A run must be a pure function of (protocol,
// parameters, adversary, seed), so executing the same configuration twice
// must produce a byte-identical trace and an identical run record. Any
// wall-clock read, map-order leak, or stray entropy source in the
// simulation stack makes this test fail before it can corrupt a result.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"kset/internal/adversary"
	"kset/internal/mpnet"
	"kset/internal/protocols/mp"
	"kset/internal/types"
)

// mpTranscript runs one configured simulation and renders every trace
// event plus the final record into one deterministic string. Crash runs
// carry a random crash adversary; Byzantine runs replace the last two
// processes with a noise strategy (which draws from its process rng) and a
// silent one.
func mpTranscript(t *testing.T, scheduler mpnet.Scheduler, seed uint64, byzantine bool) string {
	t.Helper()
	n := 7
	ins := make([]types.Value, n)
	for i := range ins {
		ins[i] = types.Value(i % 3)
	}
	var b strings.Builder
	cfg := mpnet.Config{
		N: n, T: 2, K: 2,
		Inputs:      ins,
		NewProtocol: func(types.ProcessID) mpnet.Protocol { return mp.NewFloodMin() },
		Scheduler:   scheduler,
		Seed:        seed,
		Trace:       func(ev mpnet.TraceEvent) { fmt.Fprintln(&b, ev) },
	}
	if byzantine {
		cfg.Byzantine = map[types.ProcessID]mpnet.Protocol{
			5: adversary.NewRandomNoise(2),
			6: adversary.Silent{},
		}
	} else {
		cfg.Crash = &types.RandomCrashes{Rate: 0.02, Seed: seed + 1}
	}
	rec, err := mpnet.Run(cfg)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	fmt.Fprintf(&b, "record: %+v\n", rec)
	return b.String()
}

func TestSeedStability(t *testing.T) {
	// The five policies harness.MPSweep plans, each on a crash run and on a
	// Byzantine run.
	schedulers := map[string]func() mpnet.Scheduler{
		"fair-random":  func() mpnet.Scheduler { return mpnet.FairRandom{} },
		"fifo":         func() mpnet.Scheduler { return mpnet.FIFO{} },
		"lifo":         func() mpnet.Scheduler { return mpnet.LIFO{} },
		"channel-fifo": func() mpnet.Scheduler { return mpnet.ChannelFIFO{} },
		"partition": func() mpnet.Scheduler {
			return mpnet.NewGroupGate(7, [][]types.ProcessID{{0, 3, 5}, {1, 6}, {2, 4}})
		},
	}
	for name, newSched := range schedulers {
		for _, byzantine := range []bool{false, true} {
			name, newSched, byzantine := name, newSched, byzantine
			if byzantine {
				name += "/byzantine"
			}
			t.Run(name, func(t *testing.T) {
				for seed := uint64(1); seed <= 5; seed++ {
					// Fresh scheduler values per run so no state can carry over.
					first := mpTranscript(t, newSched(), seed, byzantine)
					second := mpTranscript(t, newSched(), seed, byzantine)
					if first != second {
						t.Fatalf("seed %d: traces differ\n--- first ---\n%s\n--- second ---\n%s",
							seed, first, second)
					}
				}
			})
		}
	}
}

// TestSeedStabilityDistinguishesSeeds guards against the trivial failure
// mode of the test above: if the transcript ignored the run entirely, every
// comparison would pass. Different seeds must (for some seed pair) give
// different transcripts.
func TestSeedStabilityDistinguishesSeeds(t *testing.T) {
	a := mpTranscript(t, mpnet.FairRandom{}, 1, false)
	for seed := uint64(2); seed <= 8; seed++ {
		if mpTranscript(t, mpnet.FairRandom{}, seed, false) != a {
			return
		}
	}
	t.Fatal("transcripts identical across all seeds; trace capture is broken")
}

// TestRecordStability re-checks determinism at the record level through
// reflect.DeepEqual, independently of the string rendering.
func TestRecordStability(t *testing.T) {
	run := func(seed uint64) *types.RunRecord {
		n := 6
		ins := make([]types.Value, n)
		for i := range ins {
			ins[i] = types.Value(i)
		}
		rec, err := mpnet.Run(mpnet.Config{
			N: n, T: 1, K: 3,
			Inputs:      ins,
			NewProtocol: func(types.ProcessID) mpnet.Protocol { return mp.NewFloodMin() },
			Seed:        seed,
		})
		if err != nil {
			t.Fatal(err)
		}
		return rec
	}
	for seed := uint64(10); seed < 14; seed++ {
		if a, b := run(seed), run(seed); !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: records differ:\n%+v\n%+v", seed, a, b)
		}
	}
}
