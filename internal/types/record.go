package types

import (
	"fmt"
	"slices"
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

// Reset readies r for a runtime to record a run of len(inputs) processes
// into it: Inputs and Faulty become copies of inputs and faulty, Decided,
// Decisions and DecidedAtEvent get length N for the runtime to fill in, and
// every other field is zero. Each slice keeps its array when that is large
// enough, so a runtime that keeps one record from run to run (mpnet's and
// smmem's Runner) allocates nothing for it once it has recorded as large a
// run.
func (r *RunRecord) Reset(inputs []Value, faulty []bool) {
	n := len(inputs)
	*r = RunRecord{
		N:              n,
		Inputs:         append(r.Inputs[:0], inputs...),
		Faulty:         append(r.Faulty[:0], faulty...),
		Decided:        sized(r.Decided, n),
		Decisions:      sized(r.Decisions, n),
		DecidedAtEvent: sized(r.DecidedAtEvent, n),
	}
}

// sized returns s with length n, on its array when that is large enough.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Clone returns a copy of r that shares no memory with it.
func (r *RunRecord) Clone() *RunRecord {
	c := *r
	c.Inputs = slices.Clone(r.Inputs)
	c.Faulty = slices.Clone(r.Faulty)
	c.Decided = slices.Clone(r.Decided)
	c.Decisions = slices.Clone(r.Decisions)
	c.DecidedAtEvent = slices.Clone(r.DecidedAtEvent)
	return &c
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
	out := make([]Value, 0, len(r.Decisions))
	for i := 0; i < r.N; i++ {
		if !r.Faulty[i] && r.Decided[i] {
			out = append(out, r.Decisions[i])
		}
	}
	return distinct(out)
}

// CountCorrectDecisions returns len(CorrectDecisions()) without building
// the set: a correct decision counts if no earlier correct process decided
// the same value.
func (r *RunRecord) CountCorrectDecisions() int {
	count := 0
	for i := 0; i < r.N; i++ {
		if !r.Faulty[i] && r.Decided[i] && !r.correctlyDecidedBefore(i, r.Decisions[i]) {
			count++
		}
	}
	return count
}

// correctlyDecidedBefore reports whether a correct process below i decided v.
func (r *RunRecord) correctlyDecidedBefore(i int, v Value) bool {
	for j := 0; j < i; j++ {
		if !r.Faulty[j] && r.Decided[j] && r.Decisions[j] == v {
			return true
		}
	}
	return false
}

// AllDecisions returns the set of distinct values decided by any process
// that decided, in ascending order.
func (r *RunRecord) AllDecisions() []Value {
	out := make([]Value, 0, len(r.Decisions))
	for i := 0; i < r.N; i++ {
		if r.Decided[i] {
			out = append(out, r.Decisions[i])
		}
	}
	return distinct(out)
}

// Validate performs structural sanity checks on the record itself (sizes
// consistent, fault count within T). It does not check the consensus
// conditions; that is the checker package's job.
func (r *RunRecord) Validate() error {
	if r.N <= 0 {
		return fmt.Errorf("types: run record has n=%d", r.N)
	}
	for _, field := range [...]struct {
		name string
		l    int
	}{
		{"inputs", len(r.Inputs)},
		{"faulty", len(r.Faulty)},
		{"decided", len(r.Decided)},
		{"decisions", len(r.Decisions)},
	} {
		if field.l != r.N {
			return fmt.Errorf("types: run record %s has length %d, want n=%d", field.name, field.l, r.N)
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

// distinct sorts vs in place and drops repeated values, returning the
// ascending set: the few values of a record need no map.
func distinct(vs []Value) []Value {
	slices.Sort(vs)
	return slices.Compact(vs)
}
