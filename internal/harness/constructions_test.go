package harness

import (
	"strings"
	"testing"

	"kset/internal/adversary"
	"kset/internal/theory"
	"kset/internal/types"
)

// These tests execute the paper's impossibility-proof constructions as
// concrete runs and assert they exhibit the predicted violations against the
// concrete protocols. They are the empirical face of the brick-pattern
// regions in Figures 2, 4, 5 and 6 (impossibility itself is cited, not
// proven by running code).

func TestLemma33ConstructionViolatesAgreement(t *testing.T) {
	// Points with k*t > (k-1)*n: the Lemma 3.3 / Figure 3 run shape.
	cases := []struct{ n, k, t int }{
		{8, 2, 5},
		{9, 3, 7},
		{12, 2, 7},
		{16, 4, 13},
	}
	for _, c := range cases {
		cons, err := adversary.Lemma33ProtocolA(c.n, c.k, c.t)
		if err != nil {
			t.Fatalf("n=%d k=%d t=%d: %v", c.n, c.k, c.t, err)
		}
		// Sanity: the classifier calls this cell impossible.
		if res := theory.Classify(types.MPCR, types.WV2, c.n, c.k, c.t); res.Status != theory.Impossible {
			t.Errorf("n=%d k=%d t=%d: classifier says %v, want impossible", c.n, c.k, c.t, res.Status)
		}
		out, err := cons.Violate(4)
		if err != nil {
			t.Fatalf("n=%d k=%d t=%d: %v", c.n, c.k, c.t, err)
		}
		if out == nil {
			t.Fatalf("n=%d k=%d t=%d: construction did not violate any condition", c.n, c.k, c.t)
		}
		if !strings.Contains(out.Violation.Error(), "agreement") {
			t.Errorf("n=%d k=%d t=%d: expected agreement violation, got %v", c.n, c.k, c.t, out.Violation)
		}
		// The construction is engineered to produce exactly k+1 decisions.
		if got := len(out.Record.CorrectDecisions()); got != c.k+1 {
			t.Errorf("n=%d k=%d t=%d: %d distinct decisions, construction predicts %d",
				c.n, c.k, c.t, got, c.k+1)
		}
	}
}

func TestLemma32ConstructionBreaksFloodMin(t *testing.T) {
	cases := []struct{ n, k, t int }{
		{9, 2, 2},
		{9, 3, 4},
		{11, 2, 5},
	}
	for _, c := range cases {
		cons, err := adversary.Lemma32FloodMin(c.n, c.k, c.t)
		if err != nil {
			t.Fatalf("n=%d k=%d t=%d: %v", c.n, c.k, c.t, err)
		}
		out, err := cons.Violate(1)
		if err != nil {
			t.Fatalf("n=%d k=%d t=%d: %v", c.n, c.k, c.t, err)
		}
		if out == nil {
			t.Fatalf("n=%d k=%d t=%d: construction did not violate any condition", c.n, c.k, c.t)
		}
		if !strings.Contains(out.Violation.Error(), "agreement") {
			t.Errorf("n=%d k=%d t=%d: expected agreement violation, got %v", c.n, c.k, c.t, out.Violation)
		}
		// FIFO + mid-broadcast crashes yield exactly t+1 distinct decisions.
		if got := len(out.Record.CorrectDecisions()); got != c.t+1 {
			t.Errorf("n=%d k=%d t=%d: %d distinct decisions, construction predicts %d",
				c.n, c.k, c.t, got, c.t+1)
		}
	}
}

func TestLemma35ConstructionBreaksSV1(t *testing.T) {
	cons, err := adversary.Lemma35FloodMin(8, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := cons.Violate(1)
	if err != nil {
		t.Fatal(err)
	}
	if out == nil {
		t.Fatal("construction did not violate any condition")
	}
	if !strings.Contains(out.Violation.Error(), "SV1") {
		t.Errorf("expected SV1 violation, got %v", out.Violation)
	}
}

func TestLemma36ConstructionBreaksProtocolB(t *testing.T) {
	cases := []struct{ n, k, t int }{
		{10, 2, 4},
		{16, 3, 7},
		{20, 2, 8},
	}
	for _, c := range cases {
		cons, err := adversary.Lemma36ProtocolB(c.n, c.k, c.t)
		if err != nil {
			t.Fatalf("n=%d k=%d t=%d: %v", c.n, c.k, c.t, err)
		}
		out, err := cons.Violate(4)
		if err != nil {
			t.Fatalf("n=%d k=%d t=%d: %v", c.n, c.k, c.t, err)
		}
		if out == nil {
			t.Fatalf("n=%d k=%d t=%d: construction did not violate any condition", c.n, c.k, c.t)
		}
		if !strings.Contains(out.Violation.Error(), "agreement") {
			t.Errorf("n=%d k=%d t=%d: expected agreement violation, got %v", c.n, c.k, c.t, out.Violation)
		}
		// k group values plus the remainder's default (or junk) values.
		if got := len(out.Record.CorrectDecisions()); got < c.k+1 {
			t.Errorf("n=%d k=%d t=%d: %d distinct decisions, construction predicts >= %d",
				c.n, c.k, c.t, got, c.k+1)
		}
	}
}

func TestLemma36ConstructionPreconditions(t *testing.T) {
	if _, err := adversary.Lemma36ProtocolB(10, 2, 3); err == nil {
		t.Error("accepted a point outside Lemma 3.6's region")
	}
	if _, err := adversary.Lemma36ProtocolB(10, 2, 5); err == nil {
		t.Error("accepted n = 2t (empty groups)")
	}
}

func TestLemma39ConstructionViolatesAgreement(t *testing.T) {
	cases := []struct {
		n, k, t int
		name    string
	}{
		{8, 2, 5, "case1-t-ge-half"}, // t >= n/2, t >= k
		{8, 3, 4, "case1-t-ge-half"},
		{10, 2, 4, "case2-t-lt-half"}, // t < n/2, (2k+1)t >= kn: 5*4=20 >= 20
	}
	for _, c := range cases {
		cons, err := adversary.Lemma39ProtocolA(c.n, c.k, c.t)
		if err != nil {
			t.Fatalf("n=%d k=%d t=%d: %v", c.n, c.k, c.t, err)
		}
		out, err := cons.Violate(4)
		if err != nil {
			t.Fatalf("n=%d k=%d t=%d: %v", c.n, c.k, c.t, err)
		}
		if out == nil {
			t.Fatalf("n=%d k=%d t=%d (%s): construction did not violate any condition",
				c.n, c.k, c.t, cons.Name)
		}
		if !strings.Contains(out.Violation.Error(), "agreement") {
			t.Errorf("n=%d k=%d t=%d: expected agreement violation, got %v", c.n, c.k, c.t, out.Violation)
		}
	}
}

func TestLemma310ConstructionBreaksRV1(t *testing.T) {
	cons, err := adversary.Lemma310FloodMin(8, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	out, err := cons.Violate(1)
	if err != nil {
		t.Fatal(err)
	}
	if out == nil {
		t.Fatal("construction did not violate any condition")
	}
	if !strings.Contains(out.Violation.Error(), "RV1") {
		t.Errorf("expected RV1 violation, got %v", out.Violation)
	}
}

func TestLemma43ConstructionBreaksProtocolF(t *testing.T) {
	cases := []struct{ n, k, t int }{
		{8, 2, 4},
		{8, 3, 5},
		{10, 4, 6},
	}
	for _, c := range cases {
		cons, err := adversary.Lemma43ProtocolF(c.n, c.k, c.t)
		if err != nil {
			t.Fatalf("n=%d k=%d t=%d: %v", c.n, c.k, c.t, err)
		}
		if res := theory.Classify(types.SMCR, types.SV2, c.n, c.k, c.t); res.Status != theory.Impossible {
			t.Errorf("n=%d k=%d t=%d: classifier says %v, want impossible", c.n, c.k, c.t, res.Status)
		}
		out, err := cons.Violate(4)
		if err != nil {
			t.Fatalf("n=%d k=%d t=%d: %v", c.n, c.k, c.t, err)
		}
		if out == nil {
			t.Fatalf("n=%d k=%d t=%d: construction did not violate any condition", c.n, c.k, c.t)
		}
		if !strings.Contains(out.Violation.Error(), "agreement") {
			t.Errorf("n=%d k=%d t=%d: expected agreement violation, got %v", c.n, c.k, c.t, out.Violation)
		}
		// Every member of g decides its own input, and the released
		// processes decide the default: t+2 distinct decisions.
		if got := len(out.Record.CorrectDecisions()); got != c.t+2 {
			t.Errorf("n=%d k=%d t=%d: %d distinct decisions, construction predicts %d",
				c.n, c.k, c.t, got, c.t+2)
		}
	}
}

func TestLemma49ConstructionBreaksProtocolERV2(t *testing.T) {
	cons, err := adversary.Lemma49ProtocolE(6, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	out, err := cons.Violate(4)
	if err != nil {
		t.Fatal(err)
	}
	if out == nil {
		t.Fatal("construction did not violate any condition")
	}
	if !strings.Contains(out.Violation.Error(), "RV2") {
		t.Errorf("expected RV2 violation, got %v", out.Violation)
	}
}
