package theory

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"kset/internal/types"
)

// gridPoint is a quick generator for in-range (n, k, t) points.
type gridPoint struct {
	N, K, T int
}

// Generate implements quick.Generator.
func (gridPoint) Generate(r *rand.Rand, _ int) reflect.Value {
	n := r.Intn(80) + 4
	return reflect.ValueOf(gridPoint{
		N: n,
		K: r.Intn(n-2) + 2,
		T: r.Intn(n) + 1,
	})
}

// TestClassifyAgreesWithBoundPredicates: the classifier's solvable answers
// always match the underlying lemma predicate for the named witness.
func TestClassifyAgreesWithBoundPredicates(t *testing.T) {
	prop := func(p gridPoint) bool {
		for _, m := range types.AllModels() {
			for _, v := range types.AllValidities() {
				r := Classify(m, v, p.N, p.K, p.T)
				if r.Status != Solvable {
					continue
				}
				switch r.Proto {
				case ProtoFloodMin:
					if !FloodMinRegion(p.K, p.T) {
						return false
					}
				case ProtoA:
					if m == types.MPByz {
						if !ProtocolAByzWV2Region(p.N, p.K, p.T) {
							return false
						}
					} else if !ProtocolARegion(p.N, p.K, p.T) {
						return false
					}
				case ProtoB:
					if !ProtocolBRegion(p.N, p.K, p.T) {
						return false
					}
				case ProtoC:
					if !ProtocolCRegion(p.N, p.K, p.T, r.EchoEll) {
						return false
					}
				case ProtoD:
					if !ProtocolDRegion(p.N, p.K, p.T) {
						return false
					}
				case ProtoE:
					if p.K < 2 {
						return false
					}
				case ProtoF:
					if !ProtocolFRegion(p.K, p.T) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestImpossibleNeverCarriesWitness: impossible and open results never name
// a protocol.
func TestImpossibleNeverCarriesWitness(t *testing.T) {
	prop := func(p gridPoint) bool {
		for _, m := range types.AllModels() {
			for _, v := range types.AllValidities() {
				r := Classify(m, v, p.N, p.K, p.T)
				if r.Status != Solvable && (r.Proto != ProtoNone || r.Protocol != "") {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestEchoThresholdSafety: the acceptance threshold always exceeds t (so
// faulty echoes alone can never force an acceptance) and is achievable by
// the correct processes whenever l-echo's resilience condition holds.
func TestEchoThresholdSafety(t *testing.T) {
	prop := func(p gridPoint) bool {
		for l := 1; l <= 4; l++ {
			th := EchoAcceptThreshold(p.N, p.T, l)
			if p.T <= p.N && th <= p.T {
				return false // faulty processes could fabricate acceptance
			}
			if EchoEllValid(p.N, p.T, l) && th > p.N-p.T {
				return false // correct processes alone could not accept
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestVFormulaCases: V matches its piecewise definition on random points.
func TestVFormulaCases(t *testing.T) {
	prop := func(p gridPoint) bool {
		for f := 0; f <= p.T && f <= p.N; f++ {
			got := V(p.N, p.T, f)
			var want int
			if p.N-p.T-f <= 0 {
				want = p.N - f
			} else {
				want = p.T + 1 - f + f*((p.N-f)/(p.N-p.T-f))
			}
			if got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestGridMatchesPointClassification: ComputeGrid agrees with Classify cell
// by cell (guards the grid indexing).
func TestGridMatchesPointClassification(t *testing.T) {
	g := ComputeGrid(types.MPByz, types.WV2, 17)
	for k := 2; k <= 16; k++ {
		for tt := 1; tt <= 17; tt++ {
			if g.At(k, tt) != Classify(types.MPByz, types.WV2, 17, k, tt) {
				t.Fatalf("grid and Classify disagree at k=%d t=%d", k, tt)
			}
		}
	}
}
