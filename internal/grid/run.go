package grid

import (
	"errors"

	"kset/internal/checker"
	"kset/internal/harness"
	"kset/internal/sweep"
	"kset/internal/theory"
)

// maxViolationChars bounds the first_violation field so records stay well
// under the wire codec's string limit.
const maxViolationChars = 200

// arenas are the working sets of cell sweeps: a cell takes one, runs on it
// and returns it, so the simulators' tables, the planning buffers and the
// witness instances outlive the cell, one set per worker.
var arenas sweep.FreeList[harness.Arena]

// RunCell executes one cell of the grid: classify the point, and for
// solvable cells run the randomized adversarial sweep behind it. Pure
// function of (spec seed, cell coordinates) — reruns anywhere produce the
// identical record.
func (s *Spec) RunCell(idx uint64) Record {
	c := s.CellAt(idx)
	rec := Record{
		Kind:     "cell",
		Cell:     idx,
		Model:    c.Model.String(),
		Validity: c.Validity.String(),
		N:        c.N,
		K:        c.K,
		T:        c.T,
		Faults:   c.Plan.String(),
		Trial:    c.Trial,
		Seed:     s.CellSeed(c),
		TermOK:   true,
		AgreeOK:  true,
		ValidOK:  true,
	}
	if c.T > c.N {
		// Outside the model: more fault budget than processes. Enumerated
		// for cross-product completeness, never classified or executed.
		rec.Status = StatusInvalid
		return rec
	}
	res := theory.Classify(c.Model, c.Validity, c.N, c.K, c.T)
	rec.Status = res.Status.String()
	rec.Lemma = res.Lemma
	rec.Protocol = res.Protocol
	if res.Status != theory.Solvable {
		return rec
	}
	a := arenas.Get()
	sum, err := a.ValidateCell(c.Model, c.Validity, c.N, c.K, c.T, res, harness.CellOpts{
		Runs:     s.Runs,
		Seed:     rec.Seed,
		FaultCap: c.Plan.Cap(c.T),
	})
	arenas.Put(a)
	if err != nil {
		// A solvable cell whose witness cannot be instantiated is a bug;
		// surface it as a run error rather than aborting the sweep.
		rec.RunErrors = 1
		rec.FirstViolation = truncate(err.Error())
		return rec
	}
	rec.Runs = sum.Runs
	rec.Violations = len(sum.Violations)
	rec.RunErrors = len(sum.RunErrors)
	for i := range sum.Violations {
		var v *checker.Violation
		if !errors.As(sum.Violations[i].Err, &v) {
			continue
		}
		switch v.Condition {
		case "termination":
			rec.TermOK = false
		case "agreement":
			rec.AgreeOK = false
		default:
			rec.ValidOK = false
		}
	}
	rec.Events = sum.Events
	rec.Messages = sum.Messages
	rec.MaxDistinct = sum.MaxDistinct()
	rec.MeanDistinctMilli = meanDistinctMilli(sum)
	rec.DefaultDecisions = sum.DefaultDecisions
	if len(sum.Violations) > 0 {
		rec.FirstViolation = truncate(sum.Violations[0].Err.Error())
	} else if len(sum.RunErrors) > 0 {
		rec.FirstViolation = truncate(sum.RunErrors[0].Err.Error())
	}
	return rec
}

// meanDistinctMilli computes Summary.MeanDistinct in exact fixed-point
// millis (rounded half up) without going through floats.
func meanDistinctMilli(sum *harness.Summary) int64 {
	total, runs := 0, 0
	for d, c := range sum.DistinctDecisions {
		total += d * c
		runs += c
	}
	if runs == 0 {
		return 0
	}
	return int64((2*1000*total + runs) / (2 * runs))
}

// truncate bounds violation strings for record fields and the wire format.
func truncate(s string) string {
	if len(s) > maxViolationChars {
		return s[:maxViolationChars]
	}
	return s
}

// RunRange executes the half-open cell range [first, first+count) through
// exec (nil = serial) and returns the records in enumeration order. This is
// the shard primitive: concatenating any partitioning of ranges reproduces
// Run.
func (s *Spec) RunRange(first uint64, count int, exec harness.Executor) []Record {
	recs := make([]Record, count)
	exec.Run(count, func(i int) {
		recs[i] = s.RunCell(first + uint64(i))
	})
	return recs
}

// Run executes the whole grid through exec (nil = serial) and returns the
// records in enumeration order.
func (s *Spec) Run(exec harness.Executor) []Record {
	return s.RunRange(0, int(s.NumCells()), exec)
}
