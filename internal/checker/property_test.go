package checker

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"kset/internal/theory"
	"kset/internal/types"
)

// randomRecord is a generator for testing/quick: arbitrary run records with
// small value domains (so validity triggers fire often) and n in [1, 12].
type randomRecord struct {
	Rec *types.RunRecord
}

// Generate implements quick.Generator.
func (randomRecord) Generate(r *rand.Rand, _ int) reflect.Value {
	n := r.Intn(12) + 1
	t := r.Intn(n + 1)
	k := r.Intn(n) + 1
	rec := &types.RunRecord{
		N: n, T: t, K: k,
		Model:     types.MPCR,
		Inputs:    make([]types.Value, n),
		Faulty:    make([]bool, n),
		Decided:   make([]bool, n),
		Decisions: make([]types.Value, n),
	}
	faults := 0
	uniform := r.Intn(3) == 0 // often generate uniform-input runs
	common := types.Value(r.Intn(3) + 1)
	for i := 0; i < n; i++ {
		if uniform {
			rec.Inputs[i] = common
		} else {
			rec.Inputs[i] = types.Value(r.Intn(4) + 1)
		}
		if faults < t && r.Intn(4) == 0 {
			rec.Faulty[i] = true
			faults++
		}
		rec.Decided[i] = r.Intn(5) != 0 || !rec.Faulty[i]
		if !rec.Faulty[i] {
			rec.Decided[i] = true // keep termination satisfied
		}
		rec.Decisions[i] = types.Value(r.Intn(5)) // may be 0: off-domain
	}
	return reflect.ValueOf(randomRecord{Rec: rec})
}

// TestLatticeImplicationProperty is the semantic soundness check of
// Figure 1: for arbitrary run records, a record satisfying a validity
// condition D also satisfies every condition C that the lattice declares
// weaker than D. This ties theory.WeakerOrEqual (syntax) to the checker
// (semantics).
func TestLatticeImplicationProperty(t *testing.T) {
	prop := func(rr randomRecord) bool {
		rec := rr.Rec
		for _, d := range types.AllValidities() {
			if CheckValidity(rec, d) != nil {
				continue
			}
			for _, c := range types.AllValidities() {
				if theory.WeakerOrEqual(c, d) && CheckValidity(rec, c) != nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 4000}); err != nil {
		t.Error(err)
	}
}

// TestAgreementCountProperty: CheckAgreement flags a record exactly when the
// number of distinct correct decisions exceeds k.
func TestAgreementCountProperty(t *testing.T) {
	prop := func(rr randomRecord) bool {
		rec := rr.Rec
		distinct := len(rec.CorrectDecisions())
		err := CheckAgreement(rec)
		return (err != nil) == (distinct > rec.K)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 4000}); err != nil {
		t.Error(err)
	}
}

// TestSV1ImpliesRV1Property mirrors the strongest edge of the lattice
// directly: SV1-satisfying records satisfy RV1 (a correct process's input is
// some process's input).
func TestSV1ImpliesRV1Property(t *testing.T) {
	prop := func(rr randomRecord) bool {
		rec := rr.Rec
		if CheckValidity(rec, types.SV1) != nil {
			return true
		}
		return CheckValidity(rec, types.RV1) == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 4000}); err != nil {
		t.Error(err)
	}
}

// TestFailureFreeUniformProperty: in a failure-free run with uniform inputs,
// WV2 holds exactly when every decided process decided the common input.
func TestFailureFreeUniformProperty(t *testing.T) {
	prop := func(rr randomRecord) bool {
		rec := rr.Rec
		if rec.FaultCount() > 0 {
			return true
		}
		uniform := true
		for i := 1; i < rec.N; i++ {
			if rec.Inputs[i] != rec.Inputs[0] {
				uniform = false
				break
			}
		}
		if !uniform {
			return CheckValidity(rec, types.WV2) == nil // vacuous
		}
		want := true
		for i := 0; i < rec.N; i++ {
			if rec.Decided[i] && rec.Decisions[i] != rec.Inputs[0] {
				want = false
			}
		}
		return (CheckValidity(rec, types.WV2) == nil) == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 4000}); err != nil {
		t.Error(err)
	}
}

// TestValueSetHelpersProperty: CorrectDecisions is always a subset of the
// values any process decided, sorted ascending without duplicates.
func TestValueSetHelpersProperty(t *testing.T) {
	sortedNoDup := func(vs []types.Value) bool {
		for i := 1; i < len(vs); i++ {
			if vs[i-1] >= vs[i] {
				return false
			}
		}
		return true
	}
	prop := func(rr randomRecord) bool {
		rec := rr.Rec
		correct := rec.CorrectDecisions()
		if !sortedNoDup(correct) {
			return false
		}
		all := refSet(rec.N, func(i int) bool { return rec.Decided[i] }, func(i int) types.Value { return rec.Decisions[i] })
		for _, v := range correct {
			if !slices.Contains(all, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// The map-based set helpers and membership checks the record and the checker
// used before they sorted small slices instead: the reference the
// allocation-free versions must match.

func refSorted(set map[types.Value]struct{}) []types.Value {
	out := make([]types.Value, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// refSet collects the values v(i) of the processes 0..n-1 that keep accepts.
func refSet(n int, keep func(i int) bool, v func(i int) types.Value) []types.Value {
	set := make(map[types.Value]struct{})
	for i := 0; i < n; i++ {
		if keep(i) {
			set[v(i)] = struct{}{}
		}
	}
	return refSorted(set)
}

func refValueSet(vs []types.Value) map[types.Value]struct{} {
	set := make(map[types.Value]struct{}, len(vs))
	for _, v := range vs {
		set[v] = struct{}{}
	}
	return set
}

// refMembership is checkSV1, checkRV1 and checkWV1 on map sets: every
// decision of a process decider accepts must be in inputs.
func refMembership(rec *types.RunRecord, cond, format string, inputs []types.Value, decider func(i int) bool) error {
	set := refValueSet(inputs)
	for i := 0; i < rec.N; i++ {
		if !decider(i) {
			continue
		}
		if _, ok := set[rec.Decisions[i]]; !ok {
			return violation(rec, cond, format, types.ProcessID(i), rec.Decisions[i])
		}
	}
	return nil
}

func refValidate(r *types.RunRecord) error {
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

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestSetHelpersMatchMapReference: the record's set helpers, the
// membership validity checks and Validate answer exactly as the map-based
// versions did — same sets, same verdicts, same violation texts.
func TestSetHelpersMatchMapReference(t *testing.T) {
	prop := func(rr randomRecord, cut uint8) bool {
		rec := rr.Rec
		correct := func(i int) bool { return !rec.Faulty[i] }
		decided := func(i int) bool { return rec.Decided[i] }
		correctDecided := func(i int) bool { return !rec.Faulty[i] && rec.Decided[i] }
		always := func(int) bool { return true }
		input := func(i int) types.Value { return rec.Inputs[i] }
		decision := func(i int) types.Value { return rec.Decisions[i] }
		correctDecisions := refSet(rec.N, correctDecided, decision)
		if !slices.Equal(rec.CorrectDecisions(), correctDecisions) ||
			rec.CountCorrectDecisions() != len(correctDecisions) {
			return false
		}
		correctInputs, allInputs := refSet(rec.N, correct, input), refSet(rec.N, always, input)
		refWV1 := error(nil)
		if rec.FaultCount() == 0 {
			refWV1 = refMembership(rec, "WV1", "failure-free run: %s decided %d, not an input of any process", allInputs, decided)
		}
		for _, c := range []struct{ got, want error }{
			{checkSV1(rec), refMembership(rec, "SV1", "correct %s decided %d, not an input of any correct process", correctInputs, correctDecided)},
			{checkRV1(rec), refMembership(rec, "RV1", "correct %s decided %d, not an input of any process", allInputs, correctDecided)},
			{checkWV1(rec), refWV1},
		} {
			if errText(c.got) != errText(c.want) {
				return false
			}
		}
		// Shorten at most one of the four vectors, so the map's iteration
		// order cannot pick between two complaints.
		switch cut % 5 {
		case 1:
			rec.Inputs = rec.Inputs[:len(rec.Inputs)-1]
		case 2:
			rec.Faulty = rec.Faulty[:len(rec.Faulty)-1]
		case 3:
			rec.Decided = rec.Decided[:len(rec.Decided)-1]
		case 4:
			rec.Decisions = rec.Decisions[:len(rec.Decisions)-1]
		}
		if cut%5 == 0 {
			rec.T = int(cut) % (rec.N + 1) // sometimes below the fault count
		}
		return errText(rec.Validate()) == errText(refValidate(rec))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 4000}); err != nil {
		t.Error(err)
	}
}
