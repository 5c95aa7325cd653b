// Package harness drives experiments: it runs protocols across randomized
// adversarial scenarios (schedules, crash patterns, Byzantine strategy
// mixes, input workloads) and checks every run against the SC(k, t, C)
// conditions, and it executes the paper's scripted counterexample
// constructions. It is the engine behind cmd/ksetverify, the protocol test
// suites and EXPERIMENTS.md.
package harness

import (
	"fmt"
	"strings"

	"kset/internal/mpnet"
	"kset/internal/prng"
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

// planScratch holds per-run planning buffers that serial sweeps reuse across
// runs (parallel sweeps give every job its own, since jobs run concurrently).
type planScratch struct {
	faulty []bool
	perm   []int
	inputs []types.Value
	// byz collects the serializable Byzantine specs of the last planned
	// scenario, so Capture can store them in a trace artifact without the
	// hot path paying for a fresh slice per run.
	byz []trace.ByzSpec
	// mp is the simulator arena of a message-passing sweep's runs: the
	// process table, the in-flight pool and its index, grown once per
	// scratch instead of once per run.
	mp mpnet.Runner
}

// faultyFor returns a cleared faulty vector of length n, reusing capacity.
func (sc *planScratch) faultyFor(n int) []bool {
	if cap(sc.faulty) < n {
		sc.faulty = make([]bool, n)
	}
	sc.faulty = sc.faulty[:n]
	for i := range sc.faulty {
		sc.faulty[i] = false
	}
	return sc.faulty
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
	s.DistinctDecisions[len(rec.CorrectDecisions())]++
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

func (s *Summary) addViolation(o RunOutcome) {
	if len(s.Violations) < maxRecordedOutcomes {
		s.Violations = append(s.Violations, o)
	}
}

func (s *Summary) addRunError(o RunOutcome) {
	if len(s.RunErrors) < maxRecordedOutcomes {
		s.RunErrors = append(s.RunErrors, o)
	}
}
