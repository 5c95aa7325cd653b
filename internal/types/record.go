package types

import (
	"fmt"
	"sort"
	"strings"
)

// RunRecord is the outcome of one protocol run, produced by every runtime
// (deterministic MP simulator, SM memory, the TCP cluster's decision tables). The checker
// package validates termination, agreement and the six validity conditions
// from a RunRecord alone, independently of the protocol that produced it.
type RunRecord struct {
	// Problem parameters.
	N int // number of processes
	T int // declared failure bound
	K int // agreement bound (at most K distinct correct decisions)

	Model Model // system model the run executed in

	// Inputs[i] is the input value assigned to process i. For a Byzantine
	// process this is the value it was nominally assigned; its behaviour
	// may have been arbitrary.
	Inputs []Value

	// Faulty[i] reports whether process i actually failed during the run
	// (crashed, or executed a Byzantine strategy).
	Faulty []bool

	// Decided[i] and Decisions[i] record whether and what process i decided.
	Decided   []bool
	Decisions []Value

	// DecidedAtEvent[i] is the global event index (message deliveries for
	// MP, register operations for SM) at which process i's decision became
	// visible, or -1 if it never decided. Nil when the runtime does not
	// track latency (a record cluster.BuildRecord assembles from a table).
	DecidedAtEvent []int

	// Events counts scheduler events consumed (message deliveries for MP,
	// register operations for SM). Used by benchmarks and budget checks.
	Events int

	// Messages counts messages sent (MP runtimes only).
	Messages int

	// Seed reproduces the run together with the protocol and adversary.
	Seed uint64

	// Budget reports whether the run was cut off by the event budget while
	// correct processes were still undecided (a termination failure under a
	// fair scheduler).
	BudgetExhausted bool
}

// FaultCount returns the number of actually-faulty processes f (f <= T in a
// legal run).
func (r *RunRecord) FaultCount() int {
	f := 0
	for _, b := range r.Faulty {
		if b {
			f++
		}
	}
	return f
}

// CorrectDecisions returns the set of distinct values decided by correct
// processes, in ascending order.
func (r *RunRecord) CorrectDecisions() []Value {
	set := make(map[Value]struct{})
	for i := 0; i < r.N; i++ {
		if !r.Faulty[i] && r.Decided[i] {
			set[r.Decisions[i]] = struct{}{}
		}
	}
	return sortedValues(set)
}

// AllDecisions returns the set of distinct values decided by any process
// that decided, in ascending order. Used by the WV1/WV2 conditions, which
// quantify over all processes in failure-free runs.
func (r *RunRecord) AllDecisions() []Value {
	set := make(map[Value]struct{})
	for i := 0; i < r.N; i++ {
		if r.Decided[i] {
			set[r.Decisions[i]] = struct{}{}
		}
	}
	return sortedValues(set)
}

// CorrectInputs returns the set of distinct inputs of correct processes.
func (r *RunRecord) CorrectInputs() []Value {
	set := make(map[Value]struct{})
	for i := 0; i < r.N; i++ {
		if !r.Faulty[i] {
			set[r.Inputs[i]] = struct{}{}
		}
	}
	return sortedValues(set)
}

// AllInputs returns the set of distinct inputs of all processes.
func (r *RunRecord) AllInputs() []Value {
	set := make(map[Value]struct{})
	for i := 0; i < r.N; i++ {
		set[r.Inputs[i]] = struct{}{}
	}
	return sortedValues(set)
}

// Validate performs structural sanity checks on the record itself (sizes
// consistent, fault count within T). It does not check the consensus
// conditions; that is the checker package's job.
func (r *RunRecord) Validate() error {
	if r.N <= 0 {
		return fmt.Errorf("types: run record has n=%d", r.N)
	}
	for name, l := range map[string]int{
		"inputs":    len(r.Inputs),
		"faulty":    len(r.Faulty),
		"decided":   len(r.Decided),
		"decisions": len(r.Decisions),
	} {
		if l != r.N {
			return fmt.Errorf("types: run record %s has length %d, want n=%d", name, l, r.N)
		}
	}
	if f := r.FaultCount(); f > r.T {
		return fmt.Errorf("types: run record has %d faulty processes, above bound t=%d", f, r.T)
	}
	return nil
}

// DecisionLatencies returns the recorded decision event indices of correct,
// decided processes in ascending order, and reports whether latency data is
// available.
func (r *RunRecord) DecisionLatencies() ([]int, bool) {
	if r.DecidedAtEvent == nil {
		return nil, false
	}
	var out []int
	for i := 0; i < r.N; i++ {
		if !r.Faulty[i] && r.Decided[i] && r.DecidedAtEvent[i] >= 0 {
			out = append(out, r.DecidedAtEvent[i])
		}
	}
	sort.Ints(out)
	return out, true
}

// String renders a compact human-readable summary.
func (r *RunRecord) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "run[%s n=%d t=%d k=%d f=%d seed=%d events=%d]",
		r.Model, r.N, r.T, r.K, r.FaultCount(), r.Seed, r.Events)
	fmt.Fprintf(&b, " decisions=%v", r.CorrectDecisions())
	if r.BudgetExhausted {
		b.WriteString(" BUDGET-EXHAUSTED")
	}
	return b.String()
}

func sortedValues(set map[Value]struct{}) []Value {
	out := make([]Value, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
