package checker

import (
	"errors"
	"testing"

	"kset/internal/types"
)

// rec builds a run record from compact slices.
func rec(k, t int, inputs []types.Value, faulty []bool, decisions []types.Value, decided []bool) *types.RunRecord {
	n := len(inputs)
	if decided == nil {
		decided = make([]bool, n)
		for i := range decided {
			decided[i] = true
		}
	}
	return &types.RunRecord{
		N: n, T: t, K: k,
		Model:     types.MPCR,
		Inputs:    inputs,
		Faulty:    faulty,
		Decided:   decided,
		Decisions: decisions,
	}
}

func vals(vs ...int) []types.Value {
	out := make([]types.Value, len(vs))
	for i, v := range vs {
		out[i] = types.Value(v)
	}
	return out
}

func bools(bs ...bool) []bool { return bs }

func TestCheckTermination(t *testing.T) {
	r := rec(2, 1, vals(1, 2, 3), bools(false, false, false), vals(1, 1, 1), nil)
	if err := CheckTermination(r); err != nil {
		t.Errorf("all decided: %v", err)
	}
	r.Decided[1] = false
	if err := CheckTermination(r); err == nil {
		t.Error("undecided correct process not flagged")
	}
	// A faulty process may be undecided.
	r.Faulty[1] = true
	r.T = 1
	if err := CheckTermination(r); err != nil {
		t.Errorf("undecided faulty process flagged: %v", err)
	}
	// Budget exhaustion is a termination failure even if all decided.
	r2 := rec(2, 0, vals(1, 2), bools(false, false), vals(1, 1), nil)
	r2.BudgetExhausted = true
	if err := CheckTermination(r2); err == nil {
		t.Error("budget exhaustion not flagged")
	}
}

func TestCheckAgreement(t *testing.T) {
	// Three distinct correct decisions with k=2: violation.
	r := rec(2, 0, vals(1, 2, 3), bools(false, false, false), vals(1, 2, 3), nil)
	if err := CheckAgreement(r); err == nil {
		t.Error("3 values with k=2 not flagged")
	}
	r.K = 3
	if err := CheckAgreement(r); err != nil {
		t.Errorf("3 values with k=3 flagged: %v", err)
	}
	// Faulty decisions are excluded from the agreement count.
	r2 := rec(1, 1, vals(1, 2, 3), bools(false, false, true), vals(1, 1, 9), nil)
	if err := CheckAgreement(r2); err != nil {
		t.Errorf("faulty decision counted: %v", err)
	}
}

func TestCheckValiditySV1(t *testing.T) {
	// Decision 3 is the input of faulty p3 only: SV1 violated, RV1 holds.
	r := rec(2, 1, vals(1, 2, 3), bools(false, false, true), vals(3, 3, 3), nil)
	if err := CheckValidity(r, types.SV1); err == nil {
		t.Error("decision equal only to a faulty input must violate SV1")
	}
	if err := CheckValidity(r, types.RV1); err != nil {
		t.Errorf("RV1 should hold: %v", err)
	}
}

func TestCheckValiditySV2(t *testing.T) {
	// All correct inputs are 5; a correct process decides 6: violation.
	r := rec(2, 1, vals(5, 5, 9), bools(false, false, true), vals(5, 6, 0), nil)
	if err := CheckValidity(r, types.SV2); err == nil {
		t.Error("SV2 violation not flagged")
	}
	// Non-uniform correct inputs: SV2 is vacuous.
	r2 := rec(2, 1, vals(5, 6, 9), bools(false, false, true), vals(7, 7, 7), nil)
	if err := CheckValidity(r2, types.SV2); err != nil {
		t.Errorf("SV2 should be vacuous: %v", err)
	}
	// The faulty process's deviating input does not block the trigger.
	r3 := rec(2, 1, vals(5, 5, 9), bools(false, false, true), vals(5, 5, 0), nil)
	if err := CheckValidity(r3, types.SV2); err != nil {
		t.Errorf("SV2 should hold: %v", err)
	}
}

func TestCheckValidityRV2(t *testing.T) {
	// All inputs 4, a correct process decides 9: violation.
	r := rec(2, 1, vals(4, 4, 4), bools(false, true, false), vals(4, 4, 9), nil)
	if err := CheckValidity(r, types.RV2); err == nil {
		t.Error("RV2 violation not flagged")
	}
	// Faulty input differs: trigger off, vacuous.
	r2 := rec(2, 1, vals(4, 5, 4), bools(false, true, false), vals(9, 9, 9), nil)
	if err := CheckValidity(r2, types.RV2); err != nil {
		t.Errorf("RV2 should be vacuous when inputs differ: %v", err)
	}
}

func TestCheckValidityWV1(t *testing.T) {
	// Failure-free: decision 9 is nobody's input.
	r := rec(2, 0, vals(1, 2, 3), bools(false, false, false), vals(1, 9, 2), nil)
	if err := CheckValidity(r, types.WV1); err == nil {
		t.Error("WV1 violation not flagged in failure-free run")
	}
	// Same decisions with one failure: WV1 is vacuous.
	r2 := rec(2, 1, vals(1, 2, 3), bools(true, false, false), vals(1, 9, 2), nil)
	if err := CheckValidity(r2, types.WV1); err != nil {
		t.Errorf("WV1 should be vacuous with failures: %v", err)
	}
}

func TestCheckValidityWV2(t *testing.T) {
	// Failure-free uniform: decision must equal the input.
	r := rec(2, 0, vals(4, 4, 4), bools(false, false, false), vals(4, 4, 5), nil)
	if err := CheckValidity(r, types.WV2); err == nil {
		t.Error("WV2 violation not flagged")
	}
	r.Decisions[2] = 4
	if err := CheckValidity(r, types.WV2); err != nil {
		t.Errorf("WV2 should hold: %v", err)
	}
}

func TestViolationMatchesSentinel(t *testing.T) {
	r := rec(1, 0, vals(1, 2), bools(false, false), vals(1, 2), nil)
	err := CheckAgreement(r)
	if err == nil {
		t.Fatal("expected agreement violation")
	}
	if !errors.Is(err, ErrViolation) {
		t.Errorf("violation does not match ErrViolation: %v", err)
	}
	var v *Violation
	if !errors.As(err, &v) {
		t.Fatalf("violation is not a *Violation: %T", err)
	}
	if v.Condition != "agreement" {
		t.Errorf("condition = %q, want agreement", v.Condition)
	}
}

func TestCheckAllOrder(t *testing.T) {
	// CheckAll validates structure first: fault count above T is an error.
	r := rec(2, 0, vals(1, 2, 3), bools(true, false, false), vals(0, 1, 1), bools(false, true, true))
	if err := CheckAll(r, types.RV1); err == nil {
		t.Error("fault count above t not flagged by CheckAll")
	}
}

func TestUndecidedProcessesAreSkippedByValidity(t *testing.T) {
	// A faulty, undecided process must not trip validity checks.
	r := rec(2, 1, vals(1, 2, 3), bools(false, false, true), vals(1, 1, 0), bools(true, true, false))
	for _, v := range types.AllValidities() {
		if v == types.SV1 || v == types.RV1 {
			if err := CheckValidity(r, v); err != nil {
				t.Errorf("%v flagged undecided process: %v", v, err)
			}
		}
	}
}

// TestCheckAllAllocatesNothing: a passing check of a run allocates nothing,
// so no sweep run pays for it. The membership conditions (SV1, RV1, WV1) scan
// the record in place.
func TestCheckAllAllocatesNothing(t *testing.T) {
	for _, c := range []struct {
		v types.Validity
		r *types.RunRecord
	}{
		{types.SV1, rec(2, 1, vals(4, 2, 7, 2), bools(false, false, true, false), vals(2, 4, 7, 2), nil)},
		{types.RV1, rec(2, 1, vals(4, 2, 7, 2), bools(false, false, true, false), vals(7, 2, 1, 7), nil)},
		{types.WV1, rec(3, 1, vals(4, 2, 7, 2), bools(false, false, false, false), vals(7, 4, 2, 7), nil)},
	} {
		if err := CheckAll(c.r, c.v); err != nil {
			t.Fatalf("%v: %v", c.v, err)
		}
		if got := testing.AllocsPerRun(100, func() { _ = CheckAll(c.r, c.v) }); got != 0 {
			t.Errorf("CheckAll(%v) makes %.0f allocations, want 0", c.v, got)
		}
	}
}
