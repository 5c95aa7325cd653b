package harness

import (
	"strings"
	"testing"

	"kset/internal/adversary"
	"kset/internal/theory"
	"kset/internal/types"
)

// TestBoundaryPointBreaksProtocolA probes the isolated open points
// k*t = (k-1)*n of Figure 2's RV2/WV2 panels: the classifier marks them
// open, and the boundary construction shows Protocol A in particular
// decides k+1 values there.
func TestBoundaryPointBreaksProtocolA(t *testing.T) {
	cases := []struct{ n, k int }{
		{8, 2},  // t = 4
		{12, 3}, // t = 8
		{16, 4}, // t = 12
	}
	for _, c := range cases {
		tt := (c.k - 1) * c.n / c.k
		// The classifier must call this exact cell open.
		for _, v := range []types.Validity{types.RV2, types.WV2} {
			if res := theory.Classify(types.MPCR, v, c.n, c.k, tt); res.Status != theory.Open {
				t.Errorf("n=%d k=%d t=%d %v: classifier says %v, want open",
					c.n, c.k, tt, v, res.Status)
			}
		}
		cons, err := adversary.BoundaryProtocolA(c.n, c.k)
		if err != nil {
			t.Fatalf("n=%d k=%d: %v", c.n, c.k, err)
		}
		out, err := cons.Violate(4)
		if err != nil {
			t.Fatalf("n=%d k=%d: %v", c.n, c.k, err)
		}
		if out == nil {
			t.Fatalf("n=%d k=%d t=%d: Protocol A survived the boundary construction", c.n, c.k, tt)
		}
		if !strings.Contains(out.Violation.Error(), "agreement") {
			t.Errorf("n=%d k=%d: expected agreement violation, got %v", c.n, c.k, out.Violation)
		}
		if got := len(out.Record.CorrectDecisions()); got != c.k+1 {
			t.Errorf("n=%d k=%d: %d distinct decisions, construction predicts %d",
				c.n, c.k, got, c.k+1)
		}
	}
}

// TestBoundaryConstructionPreconditions rejects non-boundary parameters.
func TestBoundaryConstructionPreconditions(t *testing.T) {
	if _, err := adversary.BoundaryProtocolA(9, 2); err == nil {
		t.Error("accepted a point where k does not divide (k-1)n")
	}
	if _, err := adversary.BoundaryProtocolA(4, 4); err == nil {
		t.Error("accepted k >= n")
	}
	if _, err := adversary.BoundaryProtocolA(4, 2); err != nil {
		// n=4, k=2: t=2, group size 2 — valid.
		t.Errorf("rejected a valid point: %v", err)
	}
}
