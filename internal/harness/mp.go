package harness

import (
	"kset/internal/mpnet"
	"kset/internal/prng"
	"kset/internal/trace"
	"kset/internal/types"
)

// MPSweep runs a message-passing protocol across Runs randomized adversarial
// scenarios at one (n, k, t) point and checks termination, agreement and the
// validity condition on every run.
type MPSweep struct {
	// Name labels the sweep in summaries.
	Name string
	// N, K, T are the problem parameters.
	N, K, T int
	// Validity is the condition to check.
	Validity types.Validity
	// NewProtocol builds the protocol under test for each correct process.
	NewProtocol func(id types.ProcessID) mpnet.Protocol
	// Byzantine selects Byzantine strategy mixes for the faulty processes;
	// false selects crash scenarios.
	Byzantine bool
	// Runs is the number of randomized runs (default 32).
	Runs int
	// BaseSeed seeds the scenario stream; each run derives its own seed.
	BaseSeed uint64
	// Patterns restricts input workloads (nil = all patterns).
	Patterns []InputPattern
	// FaultCap clamps the planned fault count f of every scenario: 0 keeps
	// the planner's full randomized budget (the historical behavior), a
	// positive cap bounds f from above, and a negative cap forces fail-free
	// runs. The clamp applies after the planner's draws, so the scenario
	// stream (inputs, schedulers, adversaries) is unchanged for cap 0.
	FaultCap int
	// HaltOnDecide runs every scenario under terminating-protocol
	// semantics: processes stop executing once they decide. See the
	// halting experiments for which protocols survive this.
	HaltOnDecide bool
	// Spec is the serializable identity of NewProtocol, required only by
	// Capture (trace artifacts store the spec, not the factory).
	Spec trace.ProtocolSpec
}

// Execute runs the sweep.
func (s *MPSweep) Execute() *Summary { return s.run(new(Arena)) }

// run runs the sweep on a.
func (s *MPSweep) run(a *Arena) *Summary {
	return execute(s.Name, s.Runs, s.BaseSeed, s.Patterns, s.Validity, a, s.runOne)
}

// runOne plans and executes a single run on a's simulator arena.
func (s *MPSweep) runOne(seed uint64, patterns []InputPattern, a *Arena) (scenario, *types.RunRecord, error) {
	a.rng.Reset(seed)
	cfg, sc := s.plan(&a.rng, patterns, seed, a)
	rec, err := a.mp.Run(cfg)
	return sc, rec, err
}

// plan derives one scenario from the run's random stream.
func (s *MPSweep) plan(rng *prng.Source, patterns []InputPattern, seed uint64, a *Arena) (mpnet.Config, scenario) {
	n, t := s.N, s.T
	f, faulty, pattern := a.planFaults(rng, n, t, s.FaultCap, patterns)
	cfg := mpnet.Config{
		N: n, T: t, K: s.K,
		Inputs:       a.inputs,
		NewProtocol:  s.NewProtocol,
		Seed:         rng.Uint64(),
		HaltOnDecide: s.HaltOnDecide,
	}

	schedName := "fair"
	switch rng.Intn(6) {
	case 0:
		cfg.Scheduler = mpnet.FIFO{}
		schedName = "fifo"
	case 1:
		cfg.Scheduler = randomPartitionGate(n, rng, a)
		schedName = "partition"
	case 2:
		cfg.Scheduler = mpnet.LIFO{}
		schedName = "lifo"
	case 3:
		cfg.Scheduler = mpnet.ChannelFIFO{}
		schedName = "channel-fifo"
	default:
		cfg.Scheduler = mpnet.FairRandom{}
	}

	advName := "none"
	a.byz = a.byz[:0]
	if s.Byzantine {
		a.mpByz = cleared(a.mpByz)
		cfg.Byzantine = a.mpByz
		for i := 0; i < n; i++ {
			if !faulty[i] {
				continue
			}
			spec := randomByzSpec(types.ProcessID(i), n, rng)
			strat, err := spec.MPProtocol()
			if err != nil {
				// Generated specs always materialize; anything else is a bug.
				panic(err)
			}
			cfg.Byzantine[spec.Proc] = strat
			a.byz = append(a.byz, spec)
			advName = spec.Kind // last one labels the scenario
		}
		if f == 0 {
			advName = "none"
		}
	} else if f > 0 {
		switch rng.Intn(2) {
		case 0:
			crash := &a.mpScript
			crash.AtEvent, crash.AtSend = cleared(crash.AtEvent), cleared(crash.AtSend)
			for i := 0; i < n; i++ {
				if !faulty[i] {
					continue
				}
				if rng.Bool() {
					crash.AtEvent[types.ProcessID(i)] = rng.Intn(3 * n)
				} else {
					// Truncate a broadcast mid-flight.
					crash.AtSend[types.ProcessID(i)] = rng.Intn(2*n) + 1
				}
			}
			cfg.Crash = crash
			advName = "scripted-crash"
		default:
			a.mpRandom = mpnet.RandomCrashes{Rate: 2.0 / float64(n), Seed: rng.Uint64()}
			cfg.Crash = &a.mpRandom
			advName = "random-crash"
		}
	}

	return cfg, scenario{pattern: pattern, sched: schedName, adv: advName, f: f, seed: seed}
}

// randomPartitionGate re-partitions a's GroupGate at random into 2..4 groups:
// processes in a random order, each drawing its group.
func randomPartitionGate(n int, rng *prng.Source, a *Arena) *mpnet.GroupGate {
	groupCount := rng.Intn(3) + 2
	if groupCount > n {
		groupCount = n
	}
	g := &a.gate
	g.Group = zeroed(g.Group, n)
	a.perm = rng.PermInto(a.perm, n)
	for _, idx := range a.perm {
		g.Group[idx] = rng.Intn(groupCount)
	}
	return g
}

// randomByzSpec draws one Byzantine strategy with random parameters, in
// serializable form. The draw sequence is the historical randomByzStrategy
// one, so seeded sweeps plan byte-identical scenarios.
func randomByzSpec(p types.ProcessID, n int, rng *prng.Source) trace.ByzSpec {
	personas := func() []types.Value {
		vs := make([]types.Value, n)
		domain := rng.Intn(4) + 2
		for i := range vs {
			vs[i] = types.Value(rng.Intn(domain) + 1)
		}
		return vs
	}
	switch rng.Intn(5) {
	case 0:
		return trace.ByzSpec{Proc: p, Kind: trace.ByzSilent}
	case 1:
		return trace.ByzSpec{Proc: p, Kind: trace.ByzPersonaInput, Personas: personas(), Default: 1}
	case 2:
		return trace.ByzSpec{Proc: p, Kind: trace.ByzPersonaEcho, Personas: personas(), Default: 1}
	case 3:
		return trace.ByzSpec{Proc: p, Kind: trace.ByzEchoSplitter, Shift: types.Value(rng.Intn(100))}
	default:
		return trace.ByzSpec{Proc: p, Kind: trace.ByzRandomNoise, Burst: rng.Intn(3) + 1, Max: 256}
	}
}

// Capture re-derives the scenario Execute ran for one of its per-run seeds
// (a Summary outcome's Seed field) and re-executes it with recording on,
// returning the portable trace artifact plus the fresh run record. Requires
// Spec to be set.
func (s *MPSweep) Capture(runSeed uint64) (*trace.Trace, *types.RunRecord, error) {
	if err := needSpec(s.Spec, s.Name); err != nil {
		return nil, nil, err
	}
	var a Arena
	cfg, _ := s.plan(prng.New(runSeed), orAllPatterns(s.Patterns), runSeed, &a)
	return trace.CaptureMP(cfg, s.Validity, s.Spec, a.byz)
}
