package theory

import (
	"fmt"
	"testing"

	"kset/internal/types"
)

// testSizes are the grid sizes over which the consistency properties are
// checked exhaustively (the paper draws its figures for n = 64).
var testSizes = []int{5, 8, 13, 21, 64}

func forEachPoint(n int, f func(k, t int)) {
	for k := 2; k <= n-1; k++ {
		for t := 1; t <= n; t++ {
			f(k, t)
		}
	}
}

// TestClassifyTotal ensures every point of every variant gets a
// classification without panicking, and that solvable results carry a
// runnable witness while impossible results cite a lemma.
func TestClassifyTotal(t *testing.T) {
	for _, n := range testSizes {
		for _, m := range types.AllModels() {
			for _, v := range types.AllValidities() {
				forEachPoint(n, func(k, tt int) {
					r := Classify(m, v, n, k, tt)
					switch r.Status {
					case Solvable:
						if r.Proto == ProtoNone {
							t.Fatalf("%v/%v n=%d k=%d t=%d solvable without witness", m, v, n, k, tt)
						}
						if r.Lemma == "" {
							t.Fatalf("%v/%v n=%d k=%d t=%d solvable without lemma", m, v, n, k, tt)
						}
					case Impossible:
						if r.Lemma == "" {
							t.Fatalf("%v/%v n=%d k=%d t=%d impossible without lemma", m, v, n, k, tt)
						}
					case Open:
						// fine
					default:
						t.Fatalf("%v/%v n=%d k=%d t=%d: bad status %v", m, v, n, k, tt, r.Status)
					}
				})
			}
		}
	}
}

// TestLatticeConsistency: if SC(D) is solvable at a point, then every
// condition C weaker than D is solvable there too; if SC(C) is impossible,
// every stronger D is impossible. The classifier must respect the lattice on
// every grid point of every model.
func TestLatticeConsistency(t *testing.T) {
	for _, n := range testSizes {
		for _, m := range types.AllModels() {
			forEachPoint(n, func(k, tt int) {
				for _, d := range types.AllValidities() {
					rd := Classify(m, d, n, k, tt)
					for _, c := range types.AllValidities() {
						if c == d || !WeakerOrEqual(c, d) {
							continue
						}
						rc := Classify(m, c, n, k, tt)
						if rd.Status == Solvable && rc.Status == Impossible {
							t.Fatalf("%v n=%d k=%d t=%d: %v solvable (%s) but weaker %v impossible (%s)",
								m, n, k, tt, d, rd.Lemma, c, rc.Lemma)
						}
						if rc.Status == Impossible && rd.Status == Solvable {
							t.Fatalf("%v n=%d k=%d t=%d: %v impossible but stronger %v solvable",
								m, n, k, tt, c, d)
						}
					}
				}
			})
		}
	}
}

// TestCrashToByzantineConsistency: crash faults are a special case of
// Byzantine faults, so a point impossible under crashes is impossible under
// Byzantine failures, and a point solvable under Byzantine failures is
// solvable under crashes.
func TestCrashToByzantineConsistency(t *testing.T) {
	pairs := []struct{ cr, byz types.Model }{
		{types.MPCR, types.MPByz},
		{types.SMCR, types.SMByz},
	}
	for _, n := range testSizes {
		for _, p := range pairs {
			for _, v := range types.AllValidities() {
				forEachPoint(n, func(k, tt int) {
					cr := Classify(p.cr, v, n, k, tt)
					byz := Classify(p.byz, v, n, k, tt)
					if cr.Status == Impossible && byz.Status == Solvable {
						t.Fatalf("%v n=%d k=%d t=%d: impossible in %v (%s) but solvable in %v (%s)",
							v, n, k, tt, p.cr, cr.Lemma, p.byz, byz.Lemma)
					}
				})
			}
		}
	}
}

// TestMPToSMConsistency: the SIMULATION transformation carries any
// message-passing protocol to shared memory, so a point solvable in MP is
// solvable in SM (with the same failure mode), and a point impossible in SM
// is impossible in MP.
func TestMPToSMConsistency(t *testing.T) {
	pairs := []struct{ mp, sm types.Model }{
		{types.MPCR, types.SMCR},
		{types.MPByz, types.SMByz},
	}
	for _, n := range testSizes {
		for _, p := range pairs {
			for _, v := range types.AllValidities() {
				forEachPoint(n, func(k, tt int) {
					mp := Classify(p.mp, v, n, k, tt)
					sm := Classify(p.sm, v, n, k, tt)
					if mp.Status == Solvable && sm.Status == Impossible {
						t.Fatalf("%v n=%d k=%d t=%d: solvable in %v (%s) but impossible in %v (%s)",
							v, n, k, tt, p.mp, mp.Lemma, p.sm, sm.Lemma)
					}
				})
			}
		}
	}
}

// Single steps of the paper's carry rules between models: a crash is a
// legal Byzantine behaviour, and SIMULATION runs a message-passing protocol
// in shared memory under the same failures.
var (
	impossibilitySteps = [][2]types.Model{
		{types.MPCR, types.MPByz}, {types.SMCR, types.SMByz},
		{types.SMCR, types.MPCR}, {types.SMByz, types.MPByz},
	}
	protocolSteps = [][2]types.Model{{types.MPCR, types.SMCR}, {types.MPByz, types.SMByz}}
)

// carryGaps classifies every cell at (n, k, t) and describes each one left
// Open although one step of a carry rule decides it from another cell:
// Figure 1 carries a protocol to a weaker validity and an impossibility to a
// stronger one within a model, and impossibilitySteps and protocolSteps
// carry results between models at one validity.
func carryGaps(n, k, t int) []string {
	var gaps []string
	at := func(m types.Model, v types.Validity) Result { return Classify(m, v, n, k, t) }
	for _, m := range types.AllModels() {
		for _, v := range types.AllValidities() {
			if at(m, v).Status != Open {
				continue
			}
			decide := func(from types.Model, u types.Validity, want Status) bool {
				r := at(from, u)
				if r.Status != want {
					return false
				}
				gaps = append(gaps, fmt.Sprintf("%v/%v (n=%d k=%d t=%d) is open, but %v/%v is %v (%s)",
					m, v, n, k, t, from, u, r.Status, r.Lemma))
				return true
			}
			found := false
			for _, u := range types.AllValidities() {
				if !found && v != u && WeakerOrEqual(v, u) {
					found = decide(m, u, Solvable)
				}
				if !found && u != v && WeakerOrEqual(u, v) {
					found = decide(m, u, Impossible)
				}
			}
			for _, s := range impossibilitySteps {
				if !found && s[1] == m {
					found = decide(s[0], v, Impossible)
				}
			}
			for _, s := range protocolSteps {
				if !found && s[1] == m {
					found = decide(s[0], v, Solvable)
				}
			}
		}
	}
	return gaps
}

// TestClassifyClosedUnderCarryRules: no cell with 3 <= n <= 64 is Open
// where one of the paper's carry rules decides it from another cell.
func TestClassifyClosedUnderCarryRules(t *testing.T) {
	gaps := 0
	for n := 3; n <= 64; n++ {
		forEachPoint(n, func(k, tt int) {
			for _, g := range carryGaps(n, k, tt) {
				if gaps < 5 {
					t.Error(g)
				}
				gaps++
			}
		})
	}
	if gaps > 0 {
		t.Errorf("%d open cells that a carry rule decides", gaps)
	}
}

// TestSolvabilityMonotoneInK: relaxing the agreement bound cannot break
// solvability — if SC(k) is solvable then SC(k+1) is (the same protocol
// works). The classifier's regions must be upward closed in k.
func TestSolvabilityMonotoneInK(t *testing.T) {
	for _, n := range testSizes {
		for _, m := range types.AllModels() {
			for _, v := range types.AllValidities() {
				for tt := 1; tt <= n; tt++ {
					for k := 2; k <= n-2; k++ {
						cur := Classify(m, v, n, k, tt)
						next := Classify(m, v, n, k+1, tt)
						if cur.Status == Solvable && next.Status == Impossible {
							t.Fatalf("%v/%v n=%d t=%d: solvable at k=%d but impossible at k=%d",
								m, v, n, tt, k, k+1)
						}
					}
				}
			}
		}
	}
}

// TestSolvabilityAntitoneInT: reducing the fault bound cannot break
// solvability — a t-resilient protocol is (t-1)-resilient.
func TestSolvabilityAntitoneInT(t *testing.T) {
	for _, n := range testSizes {
		for _, m := range types.AllModels() {
			for _, v := range types.AllValidities() {
				for k := 2; k <= n-1; k++ {
					for tt := 1; tt <= n-1; tt++ {
						cur := Classify(m, v, n, k, tt)
						next := Classify(m, v, n, k, tt+1)
						if next.Status == Solvable && cur.Status == Impossible {
							t.Fatalf("%v/%v n=%d k=%d: impossible at t=%d but solvable at t=%d",
								m, v, n, k, tt, tt+1)
						}
					}
				}
			}
		}
	}
}

// TestPaperHeadlineCells pins the classifications the paper highlights.
func TestPaperHeadlineCells(t *testing.T) {
	cases := []struct {
		m      types.Model
		v      types.Validity
		n      int
		k, t   int
		status Status
	}{
		// Chaudhuri's bound: RV1 solvable iff t < k in both crash models.
		{types.MPCR, types.RV1, 64, 5, 4, Solvable},
		{types.MPCR, types.RV1, 64, 5, 5, Impossible},
		{types.SMCR, types.RV1, 64, 5, 4, Solvable},
		{types.SMCR, types.RV1, 64, 5, 5, Impossible},
		// RV1 impossible with any Byzantine failure.
		{types.MPByz, types.RV1, 64, 63, 1, Impossible},
		{types.SMByz, types.RV1, 64, 63, 1, Impossible},
		// SV1 never solvable.
		{types.MPCR, types.SV1, 64, 63, 1, Impossible},
		{types.MPByz, types.SV1, 64, 2, 1, Impossible},
		{types.SMCR, types.SV1, 64, 32, 10, Impossible},
		{types.SMByz, types.SV1, 64, 32, 10, Impossible},
		// The abstract's headline: default decisions (Protocol E) make
		// shared-memory RV2/WV2 solvable for every k >= 2 and any t,
		// even Byzantine (WV2).
		{types.SMCR, types.RV2, 64, 2, 64, Solvable},
		{types.SMByz, types.WV2, 64, 2, 64, Solvable},
		// Message-passing RV2 needs t < (k-1)n/k: k=2, n=64 -> t < 32.
		{types.MPCR, types.RV2, 64, 2, 31, Solvable},
		{types.MPCR, types.RV2, 64, 2, 33, Impossible},
		// The isolated open point at k*t = (k-1)*n.
		{types.MPCR, types.RV2, 64, 2, 32, Open},
		{types.MPCR, types.WV2, 64, 2, 32, Open},
		// Protocol F: SM SV2 solvable for k > t+1 despite Byzantine faults.
		{types.SMByz, types.SV2, 64, 33, 31, Solvable},
		// SM SV2 impossible when t >= n/2 and t >= k.
		{types.SMCR, types.SV2, 64, 30, 32, Impossible},
		{types.SMByz, types.RV2, 64, 30, 32, Impossible},
		// MP/Byz WV1 via Protocol D with t < n/3: k > t suffices.
		{types.MPByz, types.WV1, 64, 11, 10, Solvable},
		{types.MPByz, types.WV1, 64, 10, 10, Impossible},
		// Lemma 3.11 on RV2 carries up Figure 1 to SV2; Protocol D for WV1
		// carries down to WV2 where neither A nor C(l) reaches.
		{types.MPByz, types.SV2, 64, 2, 22, Impossible},
		{types.MPByz, types.WV2, 4, 2, 1, Solvable},
	}
	for _, c := range cases {
		got := Classify(c.m, c.v, c.n, c.k, c.t)
		if got.Status != c.status {
			t.Errorf("%v/%v n=%d k=%d t=%d: got %v (%s), want %v",
				c.m, c.v, c.n, c.k, c.t, got.Status, got.Lemma, c.status)
		}
	}
}

// TestGridCountsStableAtN64 checks the cell totals of every panel of
// Figures 2, 4, 5 and 6 at the paper's n = 64 and the exact counts of the
// fully characterized panels. Every panel's exact counts are locked by
// docs/report.md (internal/report's TestReportMatchesCheckedIn) and
// recorded in EXPERIMENTS.md.
func TestGridCountsStableAtN64(t *testing.T) {
	const n = 64
	total := (n - 2) * n // k in [2,63], t in [1,64]
	for _, m := range types.AllModels() {
		for _, v := range types.AllValidities() {
			g := ComputeGrid(m, v, n)
			s, i, o := g.Count()
			if s+i+o != total {
				t.Errorf("%v/%v: cells %d+%d+%d != %d", m, v, s, i, o, total)
			}
		}
	}
	// Spot totals for fully characterized panels.
	// MP/CR RV1: solvable iff t < k. Sum over k=2..63 of (k-1) = 1953.
	g := ComputeGrid(types.MPCR, types.RV1, n)
	s, i, o := g.Count()
	if s != 1953 || o != 0 || s+i != total {
		t.Errorf("MP/CR RV1 counts: s=%d i=%d o=%d", s, i, o)
	}
	// SM/CR RV2: everything solvable.
	g = ComputeGrid(types.SMCR, types.RV2, n)
	s, i, o = g.Count()
	if s != total || i != 0 || o != 0 {
		t.Errorf("SM/CR RV2 counts: s=%d i=%d o=%d", s, i, o)
	}
	// SV1 panels: everything impossible in all four models.
	for _, m := range types.AllModels() {
		g = ComputeGrid(m, types.SV1, n)
		s, i, o = g.Count()
		if i != total || s != 0 || o != 0 {
			t.Errorf("%v SV1 counts: s=%d i=%d o=%d", m, s, i, o)
		}
	}
}
