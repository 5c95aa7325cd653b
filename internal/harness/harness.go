// Package harness drives experiments: it runs protocols across randomized
// adversarial scenarios (schedules, crash patterns, Byzantine strategy
// mixes, input workloads) and checks every run against the SC(k, t, C)
// conditions. MPSweep and SMSweep each plan their own model's scenarios and
// share one engine; ValidateCell and CaptureCellRun build a solvable cell's
// witness sweep through one constructor, and an Arena carries a sweep's
// working set from one cell to the next. It is the engine behind
// internal/grid (and through it ksetsweep, ksetverify and ksetreport), the
// protocol test suites and EXPERIMENTS.md. The paper's scripted
// counterexample constructions run themselves (internal/adversary).
package harness

import (
	"fmt"
	"strings"

	"kset/internal/checker"
	"kset/internal/mpnet"
	"kset/internal/prng"
	"kset/internal/smmem"
	"kset/internal/trace"
	"kset/internal/types"
)

// Executor fans out independent jobs 0..jobs-1, each run exactly once, and
// returns only when all are done. A nil Executor means "run serially on the
// calling goroutine". internal/sweep provides a bounded worker-pool
// implementation (Pool.Map) that can be assigned directly to this type; the
// harness itself stays free of goroutines, channels and sync — the
// determinism contract audited by ksetlint — because all concurrency lives
// behind this function value.
//
// Jobs handed to an Executor must be pure functions of their job index
// (seeds pre-drawn in canonical order, results written to job-indexed
// slots), so every merge is byte-identical regardless of worker count.
type Executor func(jobs int, run func(job int))

// Run calls run for every job 0..jobs-1 through e, or in order on the
// calling goroutine when e is nil: the one nil-means-serial spelling every
// fan-out in the evaluation path goes through.
func (e Executor) Run(jobs int, run func(job int)) {
	if e == nil {
		for i := 0; i < jobs; i++ {
			run(i)
		}
		return
	}
	e(jobs, run)
}

// Arena is the working set of a sweep's runs, kept from one run to the next
// and from one cell to the next: the run's generator, the seeds, the
// planning buffers, the adversaries a plan draws (the partition gate, Hold,
// Starve and round-robin policies, both simulators' crash scripts and random
// crashes and Byzantine tables), the simulators' arenas (mpnet's and
// smmem's Runner, each with its run record) and the witness's protocol
// instances. A cell grows nothing an earlier cell on the same Arena already
// grew, so its allocations do not grow with its runs. A summary computed on
// a used Arena is the one a fresh Arena computes, and it shares no memory
// with the Arena.
//
// The zero value is ready to use. An Arena is not safe for concurrent use:
// a sweep's runs run one after another on it, and callers that fan cells out
// keep one per worker (internal/grid keeps a free list of them).
type Arena struct {
	rng   prng.Source // the run's stream, reseeded per run
	seeds []uint64

	faulty []bool
	perm   []int
	inputs []types.Value
	// faultyIDs lists a shared-memory scenario's faulty set.
	faultyIDs []types.ProcessID
	// byz collects the serializable Byzantine specs of the last planned
	// scenario, so Capture can store them in a trace artifact without the
	// hot path paying for a fresh slice per run.
	byz []trace.ByzSpec

	// The adversaries of the last planned scenario, rewritten by every plan
	// that draws one: the partition gate, the shared-memory delaying and
	// round-robin policies, the crash scripts and random crashes of both
	// simulators, and the tables of Byzantine strategies.
	gate       mpnet.GroupGate
	hold       smmem.Hold
	starve     smmem.Starve
	roundRobin smmem.RoundRobin
	mpScript   mpnet.ScriptedCrashes
	mpRandom   mpnet.RandomCrashes
	smScript   smmem.ScriptedCrashes
	smRandom   smmem.RandomCrashes
	mpByz      map[types.ProcessID]mpnet.Protocol
	smByz      map[types.ProcessID]smmem.Protocol

	// mp and sm are the simulator arenas — mp's process table, in-flight
	// pool and index, sm's process table and register store, and each one's
	// run record.
	mp mpnet.Runner
	sm smmem.Runner

	// witness holds the instances of spec's witness, one per process id, of
	// either simulator: built when an id first asks and restarted by every
	// run after (see internal/protocols/mp and internal/protocols/sm).
	spec    trace.ProtocolSpec
	witness []any
}

// witnessFactory returns the factory of spec's witness that hands out a's
// instances; build makes an instance the first time an id asks. One table
// serves both simulators, keyed by spec, which tells a message-passing
// witness from the shared-memory one a SIMULATION wraps it in: a spec other
// than the last one drops the last one's instances.
func witnessFactory[P any](a *Arena, spec trace.ProtocolSpec, build func(types.ProcessID) P) func(types.ProcessID) P {
	if spec != a.spec {
		clear(a.witness)
		a.spec = spec
	}
	return func(id types.ProcessID) P {
		for int(id) >= len(a.witness) {
			a.witness = append(a.witness, nil)
		}
		w, ok := a.witness[id].(P)
		if !ok {
			w = build(id)
			a.witness[id] = w
		}
		return w
	}
}

// cleared returns m empty, made when it is nil.
func cleared[K comparable, V any](m map[K]V) map[K]V {
	if m == nil {
		return make(map[K]V)
	}
	clear(m)
	return m
}

// planFaults makes the opening draws of every scenario, in the order the
// seeded goldens pin: the fault count f (usually the full budget t,
// sometimes fewer, sometimes none, then clamped by faultCap), the faulty set
// (a.perm[:f], left in place for the caller), and the input pattern and
// vector (a.inputs).
func (a *Arena) planFaults(rng *prng.Source, n, t, faultCap int, patterns []InputPattern) (f int, faulty []bool, pattern InputPattern) {
	f = t
	switch rng.Intn(4) {
	case 0:
		if t > 0 {
			f = rng.Intn(t + 1)
		}
	case 1:
		f = 0
	}
	f = clampFaults(f, faultCap)
	faulty = zeroed(a.faulty, n)
	a.faulty = faulty
	a.perm = rng.PermInto(a.perm, n)
	for _, idx := range a.perm[:f] {
		faulty[idx] = true
	}
	pattern = patterns[rng.Intn(len(patterns))]
	a.inputs = GenInputsInto(a.inputs, pattern, n, faulty, rng)
	return f, faulty, pattern
}

// scenario names a planned run: its input pattern, scheduler, adversary,
// fault count and seed. Its text is built only for a run an outcome
// records, a violation or a run error.
type scenario struct {
	pattern    InputPattern
	sched, adv string
	f          int
	seed       uint64
}

func (s scenario) String() string {
	return fmt.Sprintf("pattern=%s sched=%s adv=%s f=%d seed=%d", s.pattern, s.sched, s.adv, s.f, s.seed)
}

// execute is the engine behind MPSweep.Execute and SMSweep.Execute; runOne
// plans and executes the run of one seed on a and returns its scenario and
// its record, which is a's until the next run. Every run's seed is drawn in
// canonical order up front, so each run depends only on its own seed; the
// runs run one after another on a, and each is checked against v and
// observed as it ends, in run order. Only a record an outcome keeps is
// copied out of a. (Shared-memory records carry Messages = 0, so one merge
// serves both.)
func execute(name string, runs int, baseSeed uint64, patterns []InputPattern, v types.Validity, a *Arena,
	runOne func(seed uint64, patterns []InputPattern, a *Arena) (scenario, *types.RunRecord, error)) *Summary {
	if runs == 0 {
		runs = 32
	}
	patterns = orAllPatterns(patterns)
	a.rng.Reset(baseSeed)
	seeds := a.seeds[:0]
	for i := 0; i < runs; i++ {
		seeds = append(seeds, a.rng.Uint64())
	}
	a.seeds = seeds
	sum := &Summary{Name: name, Runs: runs}
	for _, seed := range seeds {
		sc, rec, err := runOne(seed, patterns, a)
		if err != nil {
			sum.addRunError(seed, sc, err)
			continue
		}
		sum.Events += int64(rec.Events)
		sum.Messages += int64(rec.Messages)
		sum.observe(rec)
		if violation := checker.CheckAll(rec, v); violation != nil {
			sum.addViolation(seed, sc, violation, rec)
		}
	}
	return sum
}

// zeroed returns s with length n and every element zero, on s's array when
// it is large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// needSpec is Capture's precondition: artifacts store the protocol spec, not
// the factory.
func needSpec(spec trace.ProtocolSpec, name string) error {
	if spec.Zero() {
		return fmt.Errorf("harness: sweep %q has no protocol spec to capture", name)
	}
	return nil
}

// InputPattern names a workload shape for process inputs.
type InputPattern uint8

// Input patterns. Uniform runs exercise the RV2/WV2/SV2 validity triggers;
// UniformCorrect assigns every would-be-correct process the same value while
// faulty ones differ (the SV2 trigger); Distinct maximizes decision-value
// pressure; TwoValues and SmallDomain sit in between; Grouped assigns block
// values (the shape of the partition constructions).
const (
	Distinct InputPattern = iota + 1
	Uniform
	UniformCorrect
	TwoValues
	SmallDomain
	Grouped
)

// String names the pattern.
func (p InputPattern) String() string {
	switch p {
	case Distinct:
		return "distinct"
	case Uniform:
		return "uniform"
	case UniformCorrect:
		return "uniform-correct"
	case TwoValues:
		return "two-values"
	case SmallDomain:
		return "small-domain"
	case Grouped:
		return "grouped"
	default:
		return fmt.Sprintf("pattern(%d)", int(p))
	}
}

// AllPatterns lists every input pattern.
func AllPatterns() []InputPattern {
	return []InputPattern{Distinct, Uniform, UniformCorrect, TwoValues, SmallDomain, Grouped}
}

// orAllPatterns is a sweep's Patterns field with nil meaning every pattern.
func orAllPatterns(p []InputPattern) []InputPattern {
	if len(p) == 0 {
		return AllPatterns()
	}
	return p
}

// GenInputs produces an input vector of length n for the pattern.
// faulty[i], when non-nil, marks processes planned to be faulty
// (UniformCorrect gives them deviating values).
func GenInputs(pattern InputPattern, n int, faulty []bool, rng *prng.Source) []types.Value {
	return GenInputsInto(nil, pattern, n, faulty, rng)
}

// GenInputsInto is GenInputs writing into dst when it has capacity — the
// same draws, one fewer allocation per run in serial sweep loops. The
// returned slice is only valid until the next call with the same dst.
func GenInputsInto(dst []types.Value, pattern InputPattern, n int, faulty []bool, rng *prng.Source) []types.Value {
	out := dst
	if cap(out) < n {
		out = make([]types.Value, n)
	}
	out = out[:n]
	switch pattern {
	case Uniform:
		v := types.Value(rng.Intn(5) + 1)
		for i := range out {
			out[i] = v
		}
	case UniformCorrect:
		v := types.Value(rng.Intn(5) + 1)
		for i := range out {
			if faulty != nil && faulty[i] {
				out[i] = v + 1 + types.Value(rng.Intn(3))
			} else {
				out[i] = v
			}
		}
	case TwoValues:
		a := types.Value(rng.Intn(5) + 1)
		b := a + 1 + types.Value(rng.Intn(3))
		for i := range out {
			if rng.Bool() {
				out[i] = a
			} else {
				out[i] = b
			}
		}
	case SmallDomain:
		domain := rng.Intn(4) + 2
		for i := range out {
			out[i] = types.Value(rng.Intn(domain) + 1)
		}
	case Grouped:
		groups := rng.Intn(4) + 2
		size := (n + groups - 1) / groups
		for i := range out {
			out[i] = types.Value(i/size + 1)
		}
	default: // Distinct
		for i := range out {
			out[i] = types.Value(i + 1)
		}
	}
	return out
}

// RunOutcome records one violating (or otherwise notable) run of a sweep.
type RunOutcome struct {
	Seed     uint64
	Scenario string
	Err      error
	Record   *types.RunRecord
}

// Summary aggregates a sweep.
type Summary struct {
	Name       string
	Runs       int
	Violations []RunOutcome
	// Events and Messages accumulate costs across all runs, for reporting.
	Events   int64
	Messages int64
	// RunErrors are configuration/protocol bugs (not condition violations).
	RunErrors []RunOutcome
	// DistinctDecisions[d] counts runs in which correct processes decided
	// exactly d distinct values — the typical-case tightness of the
	// agreement bound k (the paper only bounds the worst case).
	DistinctDecisions map[int]int
	// DefaultDecisions counts correct processes across all runs that
	// decided the designated default value v0.
	DefaultDecisions int64
}

// observe accumulates per-run statistics.
func (s *Summary) observe(rec *types.RunRecord) {
	if s.DistinctDecisions == nil {
		s.DistinctDecisions = make(map[int]int)
	}
	s.DistinctDecisions[rec.CountCorrectDecisions()]++
	for i := 0; i < rec.N; i++ {
		if !rec.Faulty[i] && rec.Decided[i] && rec.Decisions[i] == types.DefaultValue {
			s.DefaultDecisions++
		}
	}
}

// MaxDistinct returns the largest observed number of distinct correct
// decisions across the sweep.
func (s *Summary) MaxDistinct() int {
	max := 0
	for d := range s.DistinctDecisions {
		if d > max {
			max = d
		}
	}
	return max
}

// MeanDistinct returns the average number of distinct correct decisions.
func (s *Summary) MeanDistinct() float64 {
	total, runs := 0, 0
	for d, c := range s.DistinctDecisions {
		total += d * c
		runs += c
	}
	if runs == 0 {
		return 0
	}
	return float64(total) / float64(runs)
}

// OK reports whether the sweep saw no violations and no run errors.
func (s *Summary) OK() bool { return len(s.Violations) == 0 && len(s.RunErrors) == 0 }

// String renders a one-line summary.
func (s *Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d runs", s.Name, s.Runs)
	if s.OK() {
		b.WriteString(", all conditions held")
	} else {
		fmt.Fprintf(&b, ", %d violations, %d run errors", len(s.Violations), len(s.RunErrors))
		if len(s.Violations) > 0 {
			fmt.Fprintf(&b, "; first: %v", s.Violations[0].Err)
		}
		if len(s.RunErrors) > 0 {
			fmt.Fprintf(&b, "; first error: %v", s.RunErrors[0].Err)
		}
	}
	return b.String()
}

const maxRecordedOutcomes = 16

// addViolation records the violation of the run of seed while fewer than
// maxRecordedOutcomes are recorded, with a copy of its record. rec is the
// arena's and the next run overwrites it, so a checker.Violation is kept
// pointing at the copy.
func (s *Summary) addViolation(seed uint64, sc scenario, violation error, rec *types.RunRecord) {
	if len(s.Violations) >= maxRecordedOutcomes {
		return
	}
	kept := rec.Clone()
	if v, ok := violation.(*checker.Violation); ok {
		c := *v
		c.Record = kept
		violation = &c
	}
	s.Violations = append(s.Violations, RunOutcome{Seed: seed, Scenario: sc.String(), Err: violation, Record: kept})
}

// addRunError records the error of the run of seed while fewer than
// maxRecordedOutcomes are recorded.
func (s *Summary) addRunError(seed uint64, sc scenario, err error) {
	if len(s.RunErrors) < maxRecordedOutcomes {
		s.RunErrors = append(s.RunErrors, RunOutcome{Seed: seed, Scenario: sc.String(), Err: err})
	}
}
