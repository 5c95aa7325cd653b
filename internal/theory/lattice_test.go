package theory

import (
	"testing"

	"kset/internal/types"
)

// TestLatticeMatchesPaperFigure1 pins the exact edge set of Figure 1.
func TestLatticeMatchesPaperFigure1(t *testing.T) {
	want := map[types.Validity]map[types.Validity]bool{
		types.SV1: {types.SV2: true, types.RV1: true},
		types.SV2: {types.RV2: true},
		types.RV1: {types.RV2: true, types.WV1: true},
		types.RV2: {types.WV2: true},
		types.WV1: {types.WV2: true},
		types.WV2: {},
	}
	got := WeakerEdges()
	for d, ws := range want {
		edges := make(map[types.Validity]bool)
		for _, c := range got[d] {
			edges[c] = true
		}
		if len(edges) != len(ws) {
			t.Errorf("%v: edges %v, want %v", d, got[d], ws)
			continue
		}
		for c := range ws {
			if !edges[c] {
				t.Errorf("%v: missing edge to %v", d, c)
			}
		}
	}
}

// TestWeakerOrEqualClosure pins the full reflexive-transitive closure.
func TestWeakerOrEqualClosure(t *testing.T) {
	// weaker[d] = set of conditions weaker than or equal to d.
	weaker := map[types.Validity][]types.Validity{
		types.SV1: {types.SV1, types.SV2, types.RV1, types.RV2, types.WV1, types.WV2},
		types.SV2: {types.SV2, types.RV2, types.WV2},
		types.RV1: {types.RV1, types.RV2, types.WV1, types.WV2},
		types.RV2: {types.RV2, types.WV2},
		types.WV1: {types.WV1, types.WV2},
		types.WV2: {types.WV2},
	}
	for _, d := range types.AllValidities() {
		wantSet := make(map[types.Validity]bool)
		for _, c := range weaker[d] {
			wantSet[c] = true
		}
		for _, c := range types.AllValidities() {
			if got, want := WeakerOrEqual(c, d), wantSet[c]; got != want {
				t.Errorf("WeakerOrEqual(%v, %v) = %v, want %v", c, d, got, want)
			}
		}
	}
}

// TestLatticeIsPartialOrder checks reflexivity, antisymmetry, transitivity.
func TestLatticeIsPartialOrder(t *testing.T) {
	vs := types.AllValidities()
	for _, a := range vs {
		if !WeakerOrEqual(a, a) {
			t.Errorf("not reflexive at %v", a)
		}
		for _, b := range vs {
			if a != b && WeakerOrEqual(a, b) && WeakerOrEqual(b, a) {
				t.Errorf("antisymmetry violated between %v and %v", a, b)
			}
			for _, c := range vs {
				if WeakerOrEqual(a, b) && WeakerOrEqual(b, c) && !WeakerOrEqual(a, c) {
					t.Errorf("transitivity violated: %v <= %v <= %v", a, b, c)
				}
			}
		}
	}
}

// TestIncomparablePairs pins the pairs Figure 1 leaves unordered.
func TestIncomparablePairs(t *testing.T) {
	incomparable := [][2]types.Validity{
		{types.SV2, types.RV1},
		{types.SV2, types.WV1},
		{types.RV2, types.WV1},
	}
	for _, pair := range incomparable {
		if WeakerOrEqual(pair[0], pair[1]) || WeakerOrEqual(pair[1], pair[0]) {
			t.Errorf("%v and %v should be incomparable", pair[0], pair[1])
		}
	}
}

// TestWeakerIsStrictOffDiagonal spot-checks strictness: the order is
// reflexive, and WV2 lies strictly below SV1.
func TestWeakerIsStrictOffDiagonal(t *testing.T) {
	if !WeakerOrEqual(types.SV1, types.SV1) {
		t.Error("a condition is weaker than or equal to itself")
	}
	if !WeakerOrEqual(types.WV2, types.SV1) {
		t.Error("WV2 is strictly weaker than SV1")
	}
	if WeakerOrEqual(types.SV1, types.WV2) {
		t.Error("SV1 is not weaker than WV2")
	}
}
