package adversary

import (
	"errors"
	"fmt"
	"testing"

	"kset/internal/checker"
	"kset/internal/types"
)

// wantViolation runs a construction once and requires it to break the
// condition it names, in a run that delivered something.
func wantViolation(t *testing.T, c *Construction, seed uint64) {
	t.Helper()
	if rec := wantNamedViolation(t, c, seed); rec != nil && rec.Events == 0 {
		t.Errorf("%s: the violating run has no events", c.Name)
	}
}

// wantNamedViolation runs a construction once and requires it to break the
// condition it names; it returns the run's record.
func wantNamedViolation(t *testing.T, c *Construction, seed uint64) *types.RunRecord {
	t.Helper()
	if c.Name == "" || c.Lemma == "" || c.Expect == "" {
		t.Fatalf("construction metadata incomplete: %+v", c)
	}
	rec, err := c.Run(seed, nil)
	if err != nil {
		t.Fatalf("%s: %v", c.Name, err)
	}
	var v *checker.Violation
	if err := checker.CheckAll(rec, c.Validity); !errors.As(err, &v) {
		t.Fatalf("%s: want a %s violation, got %v (%v)", c.Name, c.Expect, err, rec)
	}
	if v.Condition != c.Expect {
		t.Errorf("%s: violated %s, want %s (%v)", c.Name, v.Condition, c.Expect, rec)
	}
	return rec
}

// point is one construction table row: a registry name at (n, k, t), under
// the subtest label it runs as.
type point struct {
	label   string
	name    string
	n, k, t int
}

// mpPoints and smPoints are the hand-picked rows of the construction table,
// one per message-passing and shared-memory lemma (and both cases of
// Lemma 3.9).
var (
	mpPoints = []point{
		{"lemma3.2", "lemma3.2", 9, 2, 3},
		{"lemma3.3", "lemma3.3", 9, 2, 7},
		{"lemma3.5", "lemma3.5", 8, 3, 1},
		{"lemma3.6", "lemma3.6", 10, 2, 4},
		{"lemma3.9-case1", "lemma3.9", 8, 2, 5},  // t >= n/2
		{"lemma3.9-case2", "lemma3.9", 10, 2, 4}, // t < n/2
		{"lemma3.10", "lemma3.10", 8, 3, 2},
		{"boundary", "boundary", 8, 2, 4},
	}
	smPoints = []point{
		{"lemma4.3", "lemma4.3", 8, 2, 4},
		{"lemma4.9", "lemma4.9", 6, 2, 1},
	}
)

// runPoints runs each row as a subtest: the construction is looked up by its
// registry name (so every name ksetrun -demo offers must resolve) and either
// declines (the boundary probe at odd n) or breaks exactly the condition it
// names.
func runPoints(t *testing.T, points []point) {
	t.Helper()
	for _, p := range points {
		t.Run(p.label, func(t *testing.T) {
			build, ok := Lookup(p.name)
			if !ok {
				t.Fatalf("no construction named %q", p.name)
			}
			cons, err := build(p.n, p.k, p.t)
			if err != nil {
				if p.name == "boundary" && p.n%2 == 1 && errors.Is(err, ErrOutOfRange) {
					return
				}
				t.Fatal(err)
			}
			wantViolation(t, cons, 1)
		})
	}
}

func TestAllMPConstructionsViolate(t *testing.T) { runPoints(t, mpPoints) }

func TestAllSMConstructionsViolate(t *testing.T) { runPoints(t, smPoints) }

// TestAllConstructionsViolate runs every registry entry, of both memory
// models, at the representative points ksetverify -constructions and the
// report use.
func TestAllConstructionsViolate(t *testing.T) {
	var points []point
	for _, n := range []int{9, 10, 12, 16} {
		for _, r := range Representatives(n) {
			label := fmt.Sprintf("%s/n=%d,k=%d,t=%d", r.Name, n, r.K, r.T)
			points = append(points, point{label, r.Name, n, r.K, r.T})
		}
	}
	runPoints(t, points)
}

func TestConstructionsAreDeterministicAcrossSeeds(t *testing.T) {
	// The gate-based constructions violate for every seed, not just a lucky
	// one: check a handful.
	cons, err := Lemma33ProtocolA(9, 2, 7)
	if err != nil {
		t.Fatal(err)
	}
	bnd, err := BoundaryProtocolA(12, 3)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 8; seed++ {
		wantViolation(t, cons, seed)
		wantViolation(t, bnd, seed)
	}
}

// TestEveryAcceptedPointViolates runs every registry builder at every point
// it accepts with 3 <= n <= 12, 1 <= k < n and 0 <= t < n, on seed 1, and
// requires the condition it names there: a builder may accept a point only
// where its run shows that condition. (At n - t = 1 a run may decide without
// a delivery: every process decides at its Start.)
func TestEveryAcceptedPointViolates(t *testing.T) {
	for _, e := range Registry {
		accepted := 0
		for n := 3; n <= 12; n++ {
			for k := 1; k < n; k++ {
				for tt := 0; tt < n; tt++ {
					cons, err := e.Build(n, k, tt)
					if err != nil {
						if !errors.Is(err, ErrOutOfRange) {
							t.Fatalf("%s n=%d k=%d t=%d: %v", e.Name, n, k, tt, err)
						}
						continue
					}
					accepted++
					t.Run(fmt.Sprintf("%s/n=%d,k=%d,t=%d", e.Name, n, k, tt), func(t *testing.T) {
						wantNamedViolation(t, cons, 1)
					})
				}
			}
		}
		if accepted == 0 {
			t.Errorf("%s accepts no point with n <= 12", e.Name)
		}
	}
}
