package sm

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"kset/internal/prng"
	"kset/internal/protocols/mp"
	"kset/internal/smmem"
	"kset/internal/types"
)

// TestRestartMatchesFresh holds SIMULATION and Protocols E and F to the
// restart contract: one instance per process id, taken through a sequence of
// runs on one Runner — n growing, shrinking and staying, t, k, the inputs and the
// schedule changing, runs cut off by crashes and by the operation budget —
// makes in every run the record and the trace a fresh instance makes on a
// fresh Runner. A restarted instance that kept its last run's broadcast or
// message counts, channel list, queues or scan counts shows in the trace.
func TestRestartMatchesFresh(t *testing.T) {
	protocols := []struct {
		name string
		mk   func() smmem.Protocol
	}{
		{"sim-floodmin", func() smmem.Protocol { return NewSimulation(mp.NewFloodMin()) }},
		{"sim-protocol-c1", func() smmem.Protocol { return NewSimulation(mp.NewProtocolC(1)) }},
		{"sim-p2p", func() smmem.Protocol { return NewSimulation(&p2pSummer{}) }},
		{"protocol-e", func() smmem.Protocol { return NewProtocolE() }},
		{"protocol-f", func() smmem.Protocol { return NewProtocolF() }},
	}
	decided := 0
	for _, p := range protocols {
		rng := prng.New(prng.MixSeed(5, uint64(len(p.name))))
		var reused []smmem.Protocol
		var runner smmem.Runner
		for i, n := range []int{8, 12, 12, 8, 3, 16, 1, 5, 5, 12, 8} {
			build := restartConfig(rng, n)
			cfg, fresh := build(), build()
			fresh.NewProtocol = func(types.ProcessID) smmem.Protocol { return p.mk() }
			cfg.NewProtocol = func(id types.ProcessID) smmem.Protocol {
				for int(id) >= len(reused) {
					reused = append(reused, p.mk())
				}
				return reused[id]
			}
			want, wantTrace := restartRun(t, smmem.Run, fresh)
			got, gotTrace := restartRun(t, runner.Run, cfg)
			if !reflect.DeepEqual(got, want) || gotTrace != wantTrace {
				t.Fatalf("%s run %d (n=%d t=%d k=%d MaxOps=%d): restarted instances differ from new ones\n got %v\nwant %v",
					p.name, i, n, cfg.T, cfg.K, cfg.MaxOps, got, want)
			}
			for q := 0; q < n; q++ {
				if got.Decided[q] && !got.Faulty[q] {
					decided++
				}
			}
		}
	}
	if decided == 0 {
		t.Fatal("no run decided: equal records say nothing")
	}
}

// restartConfig draws one run at n — t and k, inputs from a small domain, a
// scheduler, random crashes in half the runs and a short budget in a
// quarter of them — and returns a builder of its configuration with fresh
// policies, one for each side. The budget is always far below the default:
// a run whose processes wait for crashed ones polls until it ends.
func restartConfig(rng *prng.Source, n int) func() smmem.Config {
	t, k, seed := rng.Intn(n), rng.Intn(n)+1, rng.Uint64()
	inputs := make([]types.Value, n)
	for i := range inputs {
		inputs[i] = types.Value(rng.Intn(4) + 1)
	}
	sched, starved := rng.Intn(3), types.ProcessID(rng.Intn(n))
	crashes, crashSeed := rng.Bool(), rng.Uint64()
	maxOps := 16*n*n + n
	if rng.Intn(4) == 0 {
		maxOps = rng.Intn(20*n) + 1
	}
	return func() smmem.Config {
		cfg := smmem.Config{N: n, T: t, K: k, Inputs: inputs, Seed: seed, MaxOps: maxOps}
		switch sched {
		case 0:
			cfg.Scheduler = &smmem.RoundRobin{}
		case 1:
			cfg.Scheduler = smmem.NewStarve(n, starved)
		}
		if crashes {
			cfg.Crash = &types.RandomCrashes{Rate: 0.01, Seed: crashSeed}
		}
		return cfg
	}
}

// restartRun runs cfg through run and returns a copy of its record and a
// hash of its trace.
func restartRun(t *testing.T, run func(smmem.Config) (*types.RunRecord, error), cfg smmem.Config) (*types.RunRecord, uint64) {
	t.Helper()
	stream := fnv.New64a()
	cfg.Trace = func(ev smmem.TraceEvent) { fmt.Fprintln(stream, ev) }
	rec, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Clone(), stream.Sum64()
}
