// Package shrink minimizes trace artifacts: given a captured run that
// violates a condition, it searches for a smaller artifact that still
// exhibits the same violation, by re-executing every candidate through the
// real simulator and checker (internal/trace.Evaluate) — never by reasoning
// about the run structurally.
//
// The minimizer is a delta-debugging loop over four reduction passes:
//
//	truncate  — drop a suffix of the recorded schedule, letting replay's
//	            deterministic fallback (oldest message / lowest process id)
//	            finish the run;
//	drop-fault — remove one Byzantine or crash fault entirely;
//	coalesce  — replace one distinct input value with the smallest input,
//	            reducing the input alphabet;
//	retire    — remove the highest process id, shrinking n.
//
// Every accepted candidate strictly decreases the artifact's cost (schedule
// length, fault count, distinct inputs, n — no pass increases another's
// component), so the loop terminates. Candidate batches are evaluated
// through an Executor seam like the harness sweeps, and the first (lowest-
// index) surviving candidate wins, so the result is byte-identical for any
// worker count.
//
// A shrunk artifact is generally not schedule-exact — its truncated script
// plus the fallback rules still determine one unique run, but Replay's
// re-recorded schedule is longer than the script. Its verdict is always the
// one its own re-execution produced.
package shrink

import (
	"errors"
	"fmt"
	"sort"

	"kset/internal/harness"
	"kset/internal/trace"
	"kset/internal/types"
)

// ErrNotViolating reports an attempt to shrink an artifact whose verdict is
// ok, or whose re-execution no longer reproduces the recorded violation.
var ErrNotViolating = errors.New("shrink: artifact does not reproduce a violation")

// Options tunes Minimize.
type Options struct {
	// Exec evaluates candidate batches (nil = serial). The minimized
	// artifact is identical for any executor.
	Exec harness.Executor
}

// Stats reports what a minimization did.
type Stats struct {
	// Candidates is the number of candidate artifacts re-executed.
	Candidates int
	// Accepted is the number of candidates that kept the violation and
	// became the new current artifact.
	Accepted int
	// Rounds is the number of full pass sweeps until a fixpoint.
	Rounds int
}

// pass generates reduction candidates from the current artifact, ordered
// most aggressive first. An empty slice means the pass has nothing to try.
type pass struct {
	name string
	gen  func(t *trace.Trace) []*trace.Trace
}

var passes = []pass{
	{name: "truncate", gen: truncateCandidates},
	{name: "drop-fault", gen: dropFaultCandidates},
	{name: "coalesce", gen: coalesceCandidates},
	{name: "retire", gen: retireCandidates},
}

// Minimize shrinks a violating artifact to a fixpoint of all passes. The
// input is not modified. The returned artifact carries the verdict its own
// re-execution produced (same condition as the input, possibly a different
// detail line).
func Minimize(t *trace.Trace, opts Options) (*trace.Trace, *Stats, error) {
	if err := t.Validate(); err != nil {
		return nil, nil, err
	}
	if t.Verdict.OK {
		return nil, nil, fmt.Errorf("%w: verdict is ok", ErrNotViolating)
	}
	target := t.Verdict.Condition
	// The baseline must reproduce before shrinking means anything.
	v, err := trace.Evaluate(t)
	if err != nil {
		return nil, nil, err
	}
	if v.OK || v.Condition != target {
		return nil, nil, fmt.Errorf("%w: recorded %q, re-execution produced %q",
			ErrNotViolating, t.Verdict, v)
	}
	cur := clone(t)
	cur.Verdict = v
	stats := &Stats{}
	for {
		stats.Rounds++
		improved := false
		for _, p := range passes {
			// Re-run each pass to its own fixpoint: acceptance can unlock
			// further reductions of the same kind.
			for {
				cands := p.gen(cur)
				if len(cands) == 0 {
					break
				}
				idx, verdict := firstSurvivor(cands, target, opts.Exec, stats)
				if idx < 0 {
					break
				}
				cur = cands[idx]
				cur.Verdict = verdict
				stats.Accepted++
				improved = true
			}
		}
		if !improved {
			return cur, stats, nil
		}
	}
}

// firstSurvivor evaluates all candidates (possibly in parallel) and returns
// the lowest index whose re-execution reproduces the target condition,
// along with that candidate's fresh verdict. Returns -1 if none survive.
// Taking the lowest index — not the first to finish — keeps the result
// independent of worker count and scheduling.
func firstSurvivor(cands []*trace.Trace, target string, exec harness.Executor, stats *Stats) (int, trace.Verdict) {
	stats.Candidates += len(cands)
	verdicts := make([]trace.Verdict, len(cands))
	ok := make([]bool, len(cands))
	eval := func(i int) {
		v, err := trace.Evaluate(cands[i])
		if err != nil {
			return // structurally dead candidate; never accepted
		}
		verdicts[i] = v
		ok[i] = !v.OK && v.Condition == target
	}
	exec.Run(len(cands), eval)
	for i, accepted := range ok {
		if accepted {
			return i, verdicts[i]
		}
	}
	return -1, trace.Verdict{}
}

// clone deep-copies an artifact.
func clone(t *trace.Trace) *trace.Trace {
	out := *t
	out.Inputs = append([]types.Value(nil), t.Inputs...)
	out.Byzantine = append([]trace.ByzSpec(nil), t.Byzantine...)
	for i, b := range out.Byzantine {
		out.Byzantine[i].Personas = append([]types.Value(nil), b.Personas...)
	}
	out.Crashes = append([]trace.CrashSpec(nil), t.Crashes...)
	out.Schedule = append([]int(nil), t.Schedule...)
	return &out
}

// truncateCandidates drops schedule suffixes, halving the drop size from
// "everything" down to one entry. Most aggressive first, so the accepted
// candidate is the shortest script that still reproduces.
func truncateCandidates(t *trace.Trace) []*trace.Trace {
	n := len(t.Schedule)
	if n == 0 {
		return nil
	}
	var out []*trace.Trace
	seen := map[int]bool{}
	for drop := n; drop >= 1; drop /= 2 {
		keep := n - drop
		if seen[keep] {
			continue
		}
		seen[keep] = true
		c := clone(t)
		c.Schedule = c.Schedule[:keep]
		out = append(out, c)
	}
	return out
}

// dropFaultCandidates removes one Byzantine or crash entry per candidate.
func dropFaultCandidates(t *trace.Trace) []*trace.Trace {
	var out []*trace.Trace
	for i := range t.Byzantine {
		c := clone(t)
		c.Byzantine = append(c.Byzantine[:i], c.Byzantine[i+1:]...)
		out = append(out, c)
	}
	for i := range t.Crashes {
		c := clone(t)
		c.Crashes = append(c.Crashes[:i], c.Crashes[i+1:]...)
		out = append(out, c)
	}
	return out
}

// coalesceCandidates maps one distinct input value (largest first) to the
// smallest input value, shrinking the input alphabet by one per candidate.
func coalesceCandidates(t *trace.Trace) []*trace.Trace {
	vals := append([]types.Value(nil), t.Inputs...)
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	uniq := vals[:0]
	for i, v := range vals {
		if i == 0 || v != vals[i-1] {
			uniq = append(uniq, v)
		}
	}
	vals = uniq
	if len(vals) < 2 {
		return nil
	}
	lo := vals[0]
	var out []*trace.Trace
	for i := len(vals) - 1; i >= 1; i-- {
		c := clone(t)
		for j, v := range c.Inputs {
			if v == vals[i] {
				c.Inputs[j] = lo
			}
		}
		out = append(out, c)
	}
	return out
}

// retireCandidates removes the highest process id: n shrinks by one, its
// input and any fault entry for it disappear, and (shared-memory) schedule
// entries granting it are dropped. Message-passing schedule entries are
// sequence numbers, which replay's fallback rules reinterpret gracefully.
func retireCandidates(t *trace.Trace) []*trace.Trace {
	if t.N <= 1 {
		return nil
	}
	last := types.ProcessID(t.N - 1)
	c := clone(t)
	c.N--
	c.Inputs = c.Inputs[:c.N]
	for i, b := range c.Byzantine {
		if b.Proc == last {
			c.Byzantine = append(c.Byzantine[:i], c.Byzantine[i+1:]...)
			break
		}
	}
	for i := range c.Byzantine {
		if len(c.Byzantine[i].Personas) > c.N {
			c.Byzantine[i].Personas = c.Byzantine[i].Personas[:c.N]
		}
	}
	for i, cr := range c.Crashes {
		if cr.Proc == last {
			c.Crashes = append(c.Crashes[:i], c.Crashes[i+1:]...)
			break
		}
	}
	if t.Model.Comm == types.SharedMemory {
		kept := c.Schedule[:0]
		for _, s := range c.Schedule {
			if s < c.N {
				kept = append(kept, s)
			}
		}
		c.Schedule = kept
	}
	return []*trace.Trace{c}
}
