package exhaustive

import (
	"testing"

	"kset/internal/theory"
	"kset/internal/types"
)

// verifyUnreduced is Verify without the symmetry reduction: every vector in
// {1..classes}^n, each standing for itself alone. It exists only as the
// oracle of TestSymmetryReductionMatchesUnreduced.
func verifyUnreduced(t *testing.T, proto theory.ProtocolID, validity types.Validity, n, k, tt int) Verdict {
	t.Helper()
	v, err := newVerifier(proto, validity, n, k, tt, 0)
	if err != nil {
		t.Fatal(err)
	}
	verdict := Verdict{Holds: true}
	var enum func(pos int) error
	enum = func(pos int) error {
		if pos == n {
			return v.checkVector(1, &verdict)
		}
		for val := types.Value(1); val <= types.Value(v.classes); val++ {
			v.inputs[pos] = val
			if err := enum(pos + 1); err != nil || !verdict.Holds {
				return err
			}
		}
		return nil
	}
	if err := enum(0); err != nil {
		t.Fatal(err)
	}
	return verdict
}

// TestSymmetryReductionMatchesUnreduced: visiting only nondecreasing input
// vectors, each weighted by its orbit, gives the verdict of visiting every
// vector — the same Holds, the same violated condition and, on a holding
// verdict, the same Configurations — for every one-shot protocol, validity
// and (k, t) at n <= 5. A failing verdict's count depends on the order in
// which vectors are visited, so it is not compared.
func TestSymmetryReductionMatchesUnreduced(t *testing.T) {
	if testing.Short() {
		// ~2.5 s plain and ~30 s under -race (CI's -short step), all of it
		// spent re-running the unreduced space; the reduced proofs it guards
		// run under -short in the boundary tests.
		t.Skip("the unreduced oracle walks every input vector")
	}
	for n := 2; n <= 5; n++ {
		for _, proto := range oneShot {
			for _, validity := range types.AllValidities() {
				for k := 1; k <= n; k++ {
					for tt := 0; tt < n; tt++ {
						got := mustVerify(t, proto, validity, n, k, tt, 0)
						want := verifyUnreduced(t, proto, validity, n, k, tt)
						if got.Holds != want.Holds {
							t.Fatalf("%s %s n=%d k=%d t=%d: reduced holds=%v, unreduced %v",
								proto, validity, n, k, tt, got.Holds, want.Holds)
						}
						if !got.Holds && got.Violation.Condition != want.Violation.Condition {
							t.Errorf("%s %s n=%d k=%d t=%d: reduced violates %s, unreduced %s",
								proto, validity, n, k, tt, got.Violation.Condition, want.Violation.Condition)
						}
						if got.Holds && got.Configurations != want.Configurations {
							t.Errorf("%s %s n=%d k=%d t=%d: reduced counts %d configurations, unreduced %d",
								proto, validity, n, k, tt, got.Configurations, want.Configurations)
						}
					}
				}
			}
		}
	}
}
