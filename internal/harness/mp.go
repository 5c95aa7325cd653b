package harness

import (
	"fmt"

	"kset/internal/adversary"
	"kset/internal/checker"
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
	// MaxEvents overrides the per-run event budget (0 = runtime default).
	MaxEvents int
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
	// Exec fans the runs out across workers (nil = serial). Each run is a
	// pure function of its pre-drawn seed, and the summary is merged in run
	// order, so the result is identical for any Executor.
	Exec Executor
	// Spec is the serializable identity of NewProtocol, required only by
	// Capture (trace artifacts store the spec, not the factory).
	Spec trace.ProtocolSpec
}

// runResult is one run's outcome, held in a run-indexed slot until the
// canonical-order merge.
type runResult struct {
	scenario  string
	rec       *types.RunRecord
	runErr    error
	violation error
}

// Execute runs the sweep.
func (s *MPSweep) Execute() *Summary {
	runs := s.Runs
	if runs == 0 {
		runs = 32
	}
	patterns := s.Patterns
	if len(patterns) == 0 {
		patterns = AllPatterns()
	}
	sum := &Summary{Name: s.Name, Runs: runs}
	// Draw every run's seed in canonical order up front; each run then
	// depends only on its own seed, making the runs independent jobs.
	master := prng.New(s.BaseSeed)
	seeds := make([]uint64, runs)
	for i := range seeds {
		seeds[i] = master.Uint64()
	}
	results := make([]runResult, runs)
	if s.Exec == nil {
		// Serial: one planning scratch reused across all runs.
		var sc planScratch
		for i, seed := range seeds {
			results[i] = s.runOne(seed, patterns, &sc)
		}
	} else {
		s.Exec(runs, func(i int) {
			var sc planScratch
			results[i] = s.runOne(seeds[i], patterns, &sc)
		})
	}
	for i, r := range results {
		if r.runErr != nil {
			sum.addRunError(RunOutcome{Seed: seeds[i], Scenario: r.scenario, Err: r.runErr})
			continue
		}
		sum.Events += int64(r.rec.Events)
		sum.Messages += int64(r.rec.Messages)
		sum.observe(r.rec)
		if r.violation != nil {
			sum.addViolation(RunOutcome{Seed: seeds[i], Scenario: r.scenario, Err: r.violation, Record: r.rec})
		}
	}
	return sum
}

// runOne plans, executes and checks a single run.
func (s *MPSweep) runOne(seed uint64, patterns []InputPattern, sc *planScratch) runResult {
	rng := prng.New(seed)
	cfg, scenario := s.plan(rng, patterns, seed, sc)
	rec, err := sc.mp.Run(cfg)
	if err != nil {
		return runResult{scenario: scenario, runErr: err}
	}
	return runResult{scenario: scenario, rec: rec, violation: checker.CheckAll(rec, s.Validity)}
}

// plan derives one scenario from the run's random stream.
func (s *MPSweep) plan(rng *prng.Source, patterns []InputPattern, seed uint64, sc *planScratch) (mpnet.Config, string) {
	n, t := s.N, s.T
	// Plan the faulty set: usually the full budget t (worst case), sometimes
	// fewer, sometimes none.
	f := t
	switch rng.Intn(4) {
	case 0:
		if t > 0 {
			f = rng.Intn(t + 1)
		}
	case 1:
		f = 0
	}
	f = clampFaults(f, s.FaultCap)
	faulty := sc.faultyFor(n)
	sc.perm = rng.PermInto(sc.perm, n)
	for _, idx := range sc.perm[:f] {
		faulty[idx] = true
	}

	pattern := patterns[rng.Intn(len(patterns))]
	sc.inputs = GenInputsInto(sc.inputs, pattern, n, faulty, rng)
	inputs := sc.inputs

	cfg := mpnet.Config{
		N: n, T: t, K: s.K,
		Inputs:       inputs,
		NewProtocol:  s.NewProtocol,
		Seed:         rng.Uint64(),
		MaxEvents:    s.MaxEvents,
		HaltOnDecide: s.HaltOnDecide,
	}

	schedName := "fair"
	switch rng.Intn(6) {
	case 0:
		cfg.Scheduler = mpnet.FIFO{}
		schedName = "fifo"
	case 1:
		cfg.Scheduler = randomPartitionGate(n, rng, sc)
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
	sc.byz = sc.byz[:0]
	if s.Byzantine {
		cfg.Byzantine = make(map[types.ProcessID]mpnet.Protocol, f)
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
			sc.byz = append(sc.byz, spec)
			advName = spec.Kind // last one labels the scenario
		}
		if f == 0 {
			advName = "none"
		}
	} else if f > 0 {
		switch rng.Intn(2) {
		case 0:
			crash := &mpnet.ScriptedCrashes{
				AtEvent: make(map[types.ProcessID]int),
				AtSend:  make(map[types.ProcessID]int),
			}
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
			cfg.Crash = mpnet.NewRandomCrashes(2.0/float64(n), rng.Uint64())
			advName = "random-crash"
		}
	}

	scenario := fmt.Sprintf("pattern=%s sched=%s adv=%s f=%d seed=%d", pattern, schedName, advName, f, seed)
	return cfg, scenario
}

// randomPartitionGate builds a GroupGate over a random partition into 2..4
// groups.
func randomPartitionGate(n int, rng *prng.Source, sc *planScratch) *mpnet.GroupGate {
	groupCount := rng.Intn(3) + 2
	if groupCount > n {
		groupCount = n
	}
	groups := make([][]types.ProcessID, groupCount)
	sc.perm = rng.PermInto(sc.perm, n)
	for _, idx := range sc.perm {
		g := rng.Intn(groupCount)
		groups[g] = append(groups[g], types.ProcessID(idx))
	}
	return mpnet.NewGroupGate(n, groups)
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
	if s.Spec.Zero() {
		return nil, nil, fmt.Errorf("harness: sweep %q has no protocol spec to capture", s.Name)
	}
	patterns := s.Patterns
	if len(patterns) == 0 {
		patterns = AllPatterns()
	}
	var sc planScratch
	rng := prng.New(runSeed)
	cfg, _ := s.plan(rng, patterns, runSeed, &sc)
	return trace.CaptureMP(cfg, s.Validity, s.Spec, sc.byz)
}

// RunConstruction executes one scripted counterexample and returns the first
// condition violation it exhibits (nil if, unexpectedly, all conditions
// held). Deterministic constructions violate on the first seed; seed
// variation is provided for the few that need scheduling luck.
func RunConstruction(c *adversary.MPConstruction, seeds int) (*RunOutcome, error) {
	if seeds <= 0 {
		seeds = 1
	}
	for i := 0; i < seeds; i++ {
		cfg := c.FreshConfig()
		cfg.Seed = uint64(i)*2654435761 + 1
		rec, err := mpnet.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("harness: construction %s failed to run: %w", c.Name, err)
		}
		if err := checker.CheckAll(rec, c.Validity); err != nil {
			return &RunOutcome{Seed: cfg.Seed, Scenario: c.Name, Err: err, Record: rec}, nil
		}
	}
	return nil, nil
}
