// Package checker validates the three conditions of the SC(k, t, C) problem —
// termination, agreement, and each of the paper's six validity conditions —
// against a completed run record. It is deliberately independent of every
// protocol and runtime: a protocol cannot self-certify, and the same checks
// apply to the deterministic simulator, the shared-memory runtime, and the
// decision tables of the TCP cluster.
//
// Condition definitions follow Section 2 of the paper exactly:
//
//	Termination: every correct process eventually decides.
//	Agreement:   the set of values decided by correct processes has size <= k.
//	SV1: the decision of any correct process equals the input of some correct
//	     process.
//	SV2: if all correct processes start with v, correct processes decide v.
//	RV1: the decision of any correct process equals the input of some process.
//	RV2: if all processes start with v, correct processes decide v.
//	WV1: if there are no failures, the decision of any process equals the
//	     input of some process.
//	WV2: if there are no failures and all processes start with v, the
//	     decision of any process equals v.
package checker

import (
	"errors"
	"fmt"

	"kset/internal/types"
)

// Violation describes a failed condition in a run. It implements error.
type Violation struct {
	Condition string // "termination", "agreement", or a validity name
	Detail    string
	Record    *types.RunRecord
}

// Error implements the error interface.
func (v *Violation) Error() string {
	return fmt.Sprintf("checker: %s violated: %s (%s)", v.Condition, v.Detail, v.Record)
}

// ErrViolation lets callers errors.Is-match any checker violation.
var ErrViolation = errors.New("checker: condition violated")

// Is makes every Violation match ErrViolation.
func (v *Violation) Is(target error) bool { return target == ErrViolation }

func violation(rec *types.RunRecord, cond, format string, args ...any) error {
	return &Violation{Condition: cond, Detail: fmt.Sprintf(format, args...), Record: rec}
}

// CheckTermination verifies that every correct process decided. Runs cut off
// by the event budget with undecided correct processes fail this check.
func CheckTermination(rec *types.RunRecord) error {
	for i := 0; i < rec.N; i++ {
		if rec.Faulty[i] {
			continue
		}
		if !rec.Decided[i] {
			return violation(rec, "termination", "correct process %s never decided", types.ProcessID(i))
		}
	}
	if rec.BudgetExhausted {
		return violation(rec, "termination", "event budget exhausted before quiescence")
	}
	return nil
}

// CheckAgreement verifies that correct processes decided at most k distinct
// values.
func CheckAgreement(rec *types.RunRecord) error {
	decided := rec.CorrectDecisions()
	if len(decided) > rec.K {
		return violation(rec, "agreement", "correct processes decided %d distinct values %v, bound k=%d",
			len(decided), decided, rec.K)
	}
	return nil
}

// CheckValidity verifies the given validity condition.
func CheckValidity(rec *types.RunRecord, v types.Validity) error {
	switch v {
	case types.SV1:
		return checkSV1(rec)
	case types.SV2:
		return checkSV2(rec)
	case types.RV1:
		return checkRV1(rec)
	case types.RV2:
		return checkRV2(rec)
	case types.WV1:
		return checkWV1(rec)
	case types.WV2:
		return checkWV2(rec)
	default:
		return fmt.Errorf("%w: %d", types.ErrUnknownValidity, v)
	}
}

// CheckAll verifies termination, agreement and the given validity condition,
// returning the first violation found.
func CheckAll(rec *types.RunRecord, v types.Validity) error {
	if err := rec.Validate(); err != nil {
		return err
	}
	if err := CheckTermination(rec); err != nil {
		return err
	}
	if err := CheckAgreement(rec); err != nil {
		return err
	}
	return CheckValidity(rec, v)
}

// checkSV1: every correct decision is the input of some correct process.
func checkSV1(rec *types.RunRecord) error {
	correctInputs := valueSet(rec.CorrectInputs())
	for i := 0; i < rec.N; i++ {
		if rec.Faulty[i] || !rec.Decided[i] {
			continue
		}
		if _, ok := correctInputs[rec.Decisions[i]]; !ok {
			return violation(rec, "SV1", "correct %s decided %d, not an input of any correct process",
				types.ProcessID(i), rec.Decisions[i])
		}
	}
	return nil
}

// checkSV2: if all correct processes share input v, correct processes decide v.
func checkSV2(rec *types.RunRecord) error {
	v, uniform := uniformValue(rec, true /* correctOnly */)
	if !uniform {
		return nil
	}
	for i := 0; i < rec.N; i++ {
		if rec.Faulty[i] || !rec.Decided[i] {
			continue
		}
		if rec.Decisions[i] != v {
			return violation(rec, "SV2", "all correct inputs are %d but correct %s decided %d",
				v, types.ProcessID(i), rec.Decisions[i])
		}
	}
	return nil
}

// checkRV1: every correct decision is the input of some process.
func checkRV1(rec *types.RunRecord) error {
	allInputs := valueSet(rec.AllInputs())
	for i := 0; i < rec.N; i++ {
		if rec.Faulty[i] || !rec.Decided[i] {
			continue
		}
		if _, ok := allInputs[rec.Decisions[i]]; !ok {
			return violation(rec, "RV1", "correct %s decided %d, not an input of any process",
				types.ProcessID(i), rec.Decisions[i])
		}
	}
	return nil
}

// checkRV2: if all processes share input v, correct processes decide v.
func checkRV2(rec *types.RunRecord) error {
	v, uniform := uniformValue(rec, false /* correctOnly */)
	if !uniform {
		return nil
	}
	for i := 0; i < rec.N; i++ {
		if rec.Faulty[i] || !rec.Decided[i] {
			continue
		}
		if rec.Decisions[i] != v {
			return violation(rec, "RV2", "all inputs are %d but correct %s decided %d",
				v, types.ProcessID(i), rec.Decisions[i])
		}
	}
	return nil
}

// checkWV1: in failure-free runs, any decision is the input of some process.
func checkWV1(rec *types.RunRecord) error {
	if rec.FaultCount() > 0 {
		return nil
	}
	allInputs := valueSet(rec.AllInputs())
	for i := 0; i < rec.N; i++ {
		if !rec.Decided[i] {
			continue
		}
		if _, ok := allInputs[rec.Decisions[i]]; !ok {
			return violation(rec, "WV1", "failure-free run: %s decided %d, not an input of any process",
				types.ProcessID(i), rec.Decisions[i])
		}
	}
	return nil
}

// checkWV2: in failure-free runs with uniform input v, any decision equals v.
func checkWV2(rec *types.RunRecord) error {
	if rec.FaultCount() > 0 {
		return nil
	}
	v, uniform := uniformValue(rec, false /* correctOnly */)
	if !uniform {
		return nil
	}
	for i := 0; i < rec.N; i++ {
		if !rec.Decided[i] {
			continue
		}
		if rec.Decisions[i] != v {
			return violation(rec, "WV2", "failure-free uniform run on %d but %s decided %d",
				v, types.ProcessID(i), rec.Decisions[i])
		}
	}
	return nil
}

// uniformValue reports whether every (correct, if correctOnly) process has
// the same input, and returns it.
func uniformValue(rec *types.RunRecord, correctOnly bool) (types.Value, bool) {
	var v types.Value
	seen := false
	for i := 0; i < rec.N; i++ {
		if correctOnly && rec.Faulty[i] {
			continue
		}
		if !seen {
			v, seen = rec.Inputs[i], true
			continue
		}
		if rec.Inputs[i] != v {
			return 0, false
		}
	}
	return v, seen
}

func valueSet(vs []types.Value) map[types.Value]struct{} {
	set := make(map[types.Value]struct{}, len(vs))
	for _, v := range vs {
		set[v] = struct{}{}
	}
	return set
}
