package exhaustive

import (
	"testing"

	"kset/internal/theory"
	"kset/internal/types"
)

// oneShot lists the protocols Verify proves.
var oneShot = []theory.ProtocolID{theory.ProtoFloodMin, theory.ProtoA, theory.ProtoB}

// mustVerify is Verify for a protocol that keeps the one-shot shape.
func mustVerify(t *testing.T, proto theory.ProtocolID, validity types.Validity, n, k, tt, classes int) Verdict {
	t.Helper()
	verdict, err := Verify(proto, validity, n, k, tt, classes)
	if err != nil {
		t.Fatal(err)
	}
	return verdict
}

// TestRederiveFloodMinBoundary: exhaustive verification over every
// adversary at n in {4, 5} re-derives Lemmas 3.1/3.2 exactly: FloodMin
// solves SC(k, t, RV1) iff t < k.
func TestRederiveFloodMinBoundary(t *testing.T) {
	for _, n := range []int{4, 5} {
		for k := 2; k <= n-1; k++ {
			for tt := 1; tt <= n-1; tt++ {
				verdict := mustVerify(t, theory.ProtoFloodMin, types.RV1, n, k, tt, 0)
				want := tt < k
				if verdict.Holds != want {
					detail := ""
					if verdict.Violation != nil {
						detail = verdict.Violation.String()
					}
					t.Errorf("FloodMin n=%d k=%d t=%d: exhaustive says holds=%v, theory says %v (%s)",
						n, k, tt, verdict.Holds, want, detail)
				}
			}
		}
	}
}

// TestRederiveProtocolABoundary: Protocol A solves SC(k, t, RV2) iff
// k*t < (k-1)*n — the exhaustive verifier recovers both Lemma 3.7's
// sufficiency and, beyond the line (including the isolated boundary
// points), the failure.
func TestRederiveProtocolABoundary(t *testing.T) {
	for _, n := range []int{4, 5} {
		for k := 2; k <= n-1; k++ {
			for tt := 1; tt <= n-1; tt++ {
				verdict := mustVerify(t, theory.ProtoA, types.RV2, n, k, tt, 0)
				want := theory.ProtocolARegion(n, k, tt)
				if verdict.Holds != want {
					detail := ""
					if verdict.Violation != nil {
						detail = verdict.Violation.String()
					}
					t.Errorf("ProtocolA n=%d k=%d t=%d: exhaustive says holds=%v, theory says %v (%s)",
						n, k, tt, verdict.Holds, want, detail)
				}
			}
		}
	}
}

// TestRederiveProtocolBBoundary: Protocol B solves SC(k, t, SV2) iff
// 2*k*t < (k-1)*n, matching Lemma 3.8's region exactly.
func TestRederiveProtocolBBoundary(t *testing.T) {
	for _, n := range []int{4, 5} {
		for k := 2; k <= n-1; k++ {
			for tt := 1; tt <= n-1; tt++ {
				verdict := mustVerify(t, theory.ProtoB, types.SV2, n, k, tt, 0)
				want := theory.ProtocolBRegion(n, k, tt)
				if verdict.Holds != want {
					detail := ""
					if verdict.Violation != nil {
						detail = verdict.Violation.String()
					}
					t.Errorf("ProtocolB n=%d k=%d t=%d: exhaustive says holds=%v, theory says %v (%s)",
						n, k, tt, verdict.Holds, want, detail)
				}
			}
		}
	}
}

// TestRederiveBoundariesAtN6 repeats the rederivation at n=6 (every input
// vector over k+2 classes, every faulty set, every arrival subset).
func TestRederiveBoundariesAtN6(t *testing.T) {
	const n = 6
	for k := 2; k <= n-1; k++ {
		for tt := 1; tt <= n-1; tt++ {
			if got := mustVerify(t, theory.ProtoFloodMin, types.RV1, n, k, tt, 0).Holds; got != (tt < k) {
				t.Errorf("FloodMin n=6 k=%d t=%d: holds=%v, want %v", k, tt, got, tt < k)
			}
			if got := mustVerify(t, theory.ProtoA, types.RV2, n, k, tt, 0).Holds; got != theory.ProtocolARegion(n, k, tt) {
				t.Errorf("ProtocolA n=6 k=%d t=%d: holds=%v, want %v", k, tt, got, theory.ProtocolARegion(n, k, tt))
			}
			if got := mustVerify(t, theory.ProtoB, types.SV2, n, k, tt, 0).Holds; got != theory.ProtocolBRegion(n, k, tt) {
				t.Errorf("ProtocolB n=6 k=%d t=%d: holds=%v, want %v", k, tt, got, theory.ProtocolBRegion(n, k, tt))
			}
		}
	}
}

// TestProtocolAWV2MatchesRV2Boundary: the lattice says Protocol A's WV2
// region equals its RV2 region (agreement is the binding constraint, the
// WV2 trigger never fires against A); the exhaustive verifier confirms it.
func TestProtocolAWV2MatchesRV2Boundary(t *testing.T) {
	const n = 5
	for k := 2; k <= n-1; k++ {
		for tt := 1; tt <= n-1; tt++ {
			wv2 := mustVerify(t, theory.ProtoA, types.WV2, n, k, tt, 0).Holds
			rv2 := mustVerify(t, theory.ProtoA, types.RV2, n, k, tt, 0).Holds
			if wv2 != rv2 {
				t.Errorf("k=%d t=%d: WV2 holds=%v but RV2 holds=%v", k, tt, wv2, rv2)
			}
		}
	}
}

// TestFloodMinSatisfiesRV1EvenWhereAgreementFails: beyond t < k FloodMin
// loses agreement, but its decisions are always genuine inputs — RV1 alone
// never breaks. (The verifier checks conditions separately; an agreement
// witness proves the region boundary, an RV1 pass localizes the failure.)
func TestFloodMinSatisfiesRV1EvenWhereAgreementFails(t *testing.T) {
	verdict := mustVerify(t, theory.ProtoFloodMin, types.RV1, 5, 2, 3, 0)
	if verdict.Holds {
		t.Fatal("expected failure at t > k")
	}
	if verdict.Violation.Condition != "agreement" {
		t.Errorf("FloodMin's failure mode should be agreement, got %s", verdict.Violation.Condition)
	}
}

// TestWitnessesAreConcrete: a failing verdict carries a usable
// counterexample.
func TestWitnessesAreConcrete(t *testing.T) {
	verdict := mustVerify(t, theory.ProtoFloodMin, types.RV1, 5, 2, 2, 0)
	if verdict.Holds {
		t.Fatal("FloodMin at t=k should fail")
	}
	w := verdict.Violation
	if w == nil || w.Condition != "agreement" {
		t.Fatalf("expected an agreement witness, got %v", w)
	}
	if len(w.Inputs) != 5 || len(w.Faulty) != 5 {
		t.Fatalf("malformed witness: %v", w)
	}
	if w.String() == "" {
		t.Fatal("empty witness rendering")
	}
}

// TestConfigurationsCounted: the verifier reports how much it examined.
func TestConfigurationsCounted(t *testing.T) {
	verdict := mustVerify(t, theory.ProtoA, types.RV2, 4, 3, 1, 2)
	if !verdict.Holds {
		t.Fatalf("expected hold: %v", verdict.Violation)
	}
	// 2^4 input vectors times faulty sets of size <= 1 (1 + 4 = 5).
	if want := 16 * 5; verdict.Configurations != want {
		t.Errorf("configurations = %d, want %d", verdict.Configurations, want)
	}
}

// TestClassQuantificationIsSaturated: adding input classes beyond the
// default k+2 never changes a verdict at n=5 — the default quantification
// is already saturated (decisions are drawn from input values plus the
// default, so at most k+2 distinct values matter to any check).
func TestClassQuantificationIsSaturated(t *testing.T) {
	const n = 5
	for k := 2; k <= n-1; k++ {
		for tt := 1; tt <= n-1; tt++ {
			for _, proto := range oneShot {
				base := mustVerify(t, proto, types.RV2, n, k, tt, 0).Holds
				classes := k + 2
				if classes > n {
					classes = n
				}
				wider := mustVerify(t, proto, types.RV2, n, k, tt, classes+1).Holds
				if base != wider {
					t.Errorf("%s n=%d k=%d t=%d: verdict flips with more classes (%v vs %v)",
						proto, n, k, tt, base, wider)
				}
			}
		}
	}
}

// TestMaxDistinctMatching exercises the bipartite matching directly.
func TestMaxDistinctMatching(t *testing.T) {
	menu := func(vs ...types.Value) []types.Value { return vs }
	cases := []struct {
		menus [][]types.Value
		want  int
	}{
		{[][]types.Value{menu(1), menu(1), menu(1)}, 1},
		{[][]types.Value{menu(1, 2), menu(1, 2), nil}, 2},
		{[][]types.Value{menu(1), menu(1, 2), menu(2, 3)}, 3},
		// Both processes can decide both values but there are only two
		// processes: at most 2 distinct.
		{[][]types.Value{menu(1, 2, 3), menu(1, 2, 3)}, 2},
		{[][]types.Value{nil, nil}, 0},
	}
	for i, c := range cases {
		if got := maxDistinct(c.menus); got != c.want {
			t.Errorf("case %d: maxDistinct = %d, want %d", i, got, c.want)
		}
	}
}
