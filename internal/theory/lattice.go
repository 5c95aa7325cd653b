// Package theory encodes the paper's results: the "weaker-than" lattice over
// the six validity conditions (Figure 1), the exact integer bounds of every
// possibility and impossibility lemma, the combinatorial functions V(n,t,f)
// and Z(n,t) of Protocol D, and a classifier that labels each point (k, t)
// of each of the 24 problem variants as solvable, impossible, or open —
// exactly the content of Figures 2, 4, 5 and 6.
//
// All bounds are evaluated with exact integer arithmetic, so the rendered
// region boundaries are bit-exact with the lemma statements.
package theory

import "kset/internal/types"

// directlyWeaker lists the edges of the paper's Figure 1: an edge D -> C
// means condition C is logically implied by condition D, i.e. SC(C) is
// weaker than SC(D).
var directlyWeaker = map[types.Validity][]types.Validity{
	types.SV1: {types.SV2, types.RV1},
	types.SV2: {types.RV2},
	types.RV1: {types.RV2, types.WV1},
	types.RV2: {types.WV2},
	types.WV1: {types.WV2},
	types.WV2: nil,
}

// WeakerEdges returns a copy of Figure 1's edge set: for each condition D,
// the conditions directly weaker than D.
func WeakerEdges() map[types.Validity][]types.Validity {
	out := make(map[types.Validity][]types.Validity, len(directlyWeaker))
	//ksetlint:allow maporder.range one write per distinct key; the copied map is order-independent
	for d, cs := range directlyWeaker {
		out[d] = append([]types.Validity(nil), cs...)
	}
	return out
}

// WeakerOrEqual reports whether SC(c) is weaker than or equal to SC(d):
// every run satisfying validity d also satisfies validity c. This is the
// reflexive-transitive closure of Figure 1.
func WeakerOrEqual(c, d types.Validity) bool {
	if c == d {
		return true
	}
	// The lattice has six nodes; a simple DFS is plenty.
	stack := []types.Validity{d}
	seen := make(map[types.Validity]bool, 6)
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[cur] {
			continue
		}
		seen[cur] = true
		for _, w := range directlyWeaker[cur] {
			if w == c {
				return true
			}
			stack = append(stack, w)
		}
	}
	return false
}
