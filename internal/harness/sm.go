package harness

import (
	"kset/internal/prng"
	"kset/internal/smmem"
	"kset/internal/trace"
	"kset/internal/types"
)

// SMSweep runs a shared-memory protocol across Runs randomized adversarial
// scenarios at one (n, k, t) point and checks termination, agreement and the
// validity condition on every run.
type SMSweep struct {
	// Name labels the sweep in summaries.
	Name string
	// N, K, T are the problem parameters.
	N, K, T int
	// Validity is the condition to check.
	Validity types.Validity
	// NewProtocol builds the protocol under test for each correct process.
	NewProtocol func(id types.ProcessID) smmem.Protocol
	// Byzantine selects Byzantine strategy mixes; false selects crashes.
	Byzantine bool
	// Runs is the number of randomized runs (default 32).
	Runs int
	// BaseSeed seeds the scenario stream.
	BaseSeed uint64
	// Patterns restricts input workloads (nil = all patterns).
	Patterns []InputPattern
	// FaultCap clamps the planned fault count f of every scenario: 0 keeps
	// the planner's full randomized budget, a positive cap bounds f from
	// above, and a negative cap forces fail-free runs. The clamp applies
	// after the planner's draws, so the scenario stream is unchanged for
	// cap 0.
	FaultCap int
	// Spec is the serializable identity of NewProtocol, required only by
	// Capture (trace artifacts store the spec, not the factory).
	Spec trace.ProtocolSpec
}

// Execute runs the sweep.
func (s *SMSweep) Execute() *Summary { return s.run(new(Arena)) }

// run runs the sweep on a.
func (s *SMSweep) run(a *Arena) *Summary {
	return execute(s.Name, s.Runs, s.BaseSeed, s.Patterns, s.Validity, a, s.runOne)
}

// runOne plans and executes a single run on a's simulator arena.
func (s *SMSweep) runOne(seed uint64, patterns []InputPattern, a *Arena) (scenario, *types.RunRecord, error) {
	a.rng.Reset(seed)
	cfg, sc := s.plan(&a.rng, patterns, seed, a)
	rec, err := a.sm.Run(cfg)
	return sc, rec, err
}

// plan derives one scenario from the run's random stream.
func (s *SMSweep) plan(rng *prng.Source, patterns []InputPattern, seed uint64, a *Arena) (smmem.Config, scenario) {
	n, t := s.N, s.T
	f, _, pattern := a.planFaults(rng, n, t, s.FaultCap, patterns)
	faultyIDs := a.faultyIDs[:0]
	for _, idx := range a.perm[:f] {
		faultyIDs = append(faultyIDs, types.ProcessID(idx))
	}
	a.faultyIDs = faultyIDs
	cfg := smmem.Config{
		N: n, T: t, K: s.K,
		Inputs:      a.inputs,
		NewProtocol: s.NewProtocol,
		Seed:        rng.Uint64(),
	}

	// Subsets used by Hold/Starve must stay within the fault budget so
	// spinning protocols (F, SIMULATION pollers) are never wedged by a
	// legal schedule: at most t processes may be delayed arbitrarily long
	// without blocking the rest. delaySet marks one in a zeroed marks.
	delaySet := func(marks []bool) []bool {
		marks = zeroed(marks, n)
		size := rng.Intn(t + 1)
		a.perm = rng.PermInto(a.perm, n)
		for _, idx := range a.perm[:size] {
			marks[idx] = true
		}
		return marks
	}

	// Delaying schedules must eventually release (the model allows only
	// finite delay); give them a deadline well under the op budget.
	release := 64*n*n + n

	schedName := "fair"
	switch rng.Intn(5) {
	case 0:
		cfg.Scheduler = &a.roundRobin
		schedName = "round-robin"
	case 1:
		// The held processes wait for every other process to decide.
		hold := &a.hold
		hold.Held = delaySet(hold.Held)
		hold.Watch = zeroed(hold.Watch, n)
		for i, held := range hold.Held {
			hold.Watch[i] = !held
		}
		hold.ReleaseAtOps = release
		cfg.Scheduler = hold
		schedName = "hold"
	case 2:
		starve := &a.starve
		starve.Starved = delaySet(starve.Starved)
		starve.ReleaseAtOps = release
		cfg.Scheduler = starve
		schedName = "starve"
	default:
		cfg.Scheduler = smmem.FairRandom{}
	}

	advName := "none"
	a.byz = a.byz[:0]
	if s.Byzantine {
		a.smByz = cleared(a.smByz)
		cfg.Byzantine = a.smByz
		for _, id := range faultyIDs {
			spec := randomSMByzSpec(id, n, rng)
			strat, err := spec.SMProtocol()
			if err != nil {
				// Generated specs always materialize; anything else is a bug.
				panic(err)
			}
			cfg.Byzantine[id] = strat
			a.byz = append(a.byz, spec)
			advName = spec.Kind
		}
		if f == 0 {
			advName = "none"
		}
	} else if f > 0 {
		switch rng.Intn(2) {
		case 0:
			a.script = a.script[:0]
			for _, id := range faultyIDs {
				a.script = append(a.script, types.CrashPoint{Proc: id, Kind: types.CrashAtOp, Index: rng.Intn(4 * n)})
			}
			cfg.Crash = &a.script
			advName = "scripted-crash"
		default:
			a.random = types.RandomCrashes{Rate: 2.0 / float64(4*n), Seed: rng.Uint64()}
			cfg.Crash = &a.random
			advName = "random-crash"
		}
	}

	return cfg, scenario{pattern: pattern, sched: schedName, adv: advName, f: f, seed: seed}
}

// randomSMByzSpec draws one shared-memory Byzantine strategy in serializable
// form: a native garbage writer, or a simulated message-passing attack run
// through the paper's SIMULATION transformation. The draw sequence is the
// historical randomSMByzStrategy one, so seeded sweeps plan byte-identical
// scenarios.
func randomSMByzSpec(p types.ProcessID, n int, rng *prng.Source) trace.ByzSpec {
	switch rng.Intn(4) {
	case 0:
		return trace.ByzSpec{Proc: p, Kind: trace.ByzGarbageWriter, Rounds: rng.Intn(64) + 16}
	case 1:
		personas := make([]types.Value, n)
		domain := rng.Intn(4) + 2
		for i := range personas {
			personas[i] = types.Value(rng.Intn(domain) + 1)
		}
		return trace.ByzSpec{Proc: p, Kind: trace.ByzSimPersonaInput, Personas: personas, Default: 1}
	case 2:
		personas := make([]types.Value, n)
		for i := range personas {
			personas[i] = types.Value(rng.Intn(3) + 1)
		}
		return trace.ByzSpec{Proc: p, Kind: trace.ByzSimPersonaEcho, Personas: personas, Default: 1}
	default:
		return trace.ByzSpec{Proc: p, Kind: trace.ByzSimSilent}
	}
}

// Capture re-derives the scenario Execute ran for one of its per-run seeds
// and re-executes it with recording on, returning the portable trace
// artifact plus the fresh run record. Requires Spec to be set.
func (s *SMSweep) Capture(runSeed uint64) (*trace.Trace, *types.RunRecord, error) {
	if err := needSpec(s.Spec, s.Name); err != nil {
		return nil, nil, err
	}
	var a Arena
	cfg, _ := s.plan(prng.New(runSeed), orAllPatterns(s.Patterns), runSeed, &a)
	return trace.CaptureSM(cfg, s.Validity, s.Spec, a.byz)
}
