package kset

import (
	"errors"
	"strings"
	"testing"

	"kset/internal/types"
)

func TestSolveFloodMinMPCR(t *testing.T) {
	rec, err := Solve(SolveConfig{
		Model: MPCR, Validity: RV1,
		N: 6, K: 3, T: 2,
		Inputs: []Value{4, 2, 6, 1, 5, 3},
		Seed:   7,
	})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	decided := rec.CorrectDecisions()
	if len(decided) == 0 || len(decided) > 3 {
		t.Errorf("decisions %v, want 1..3 distinct", decided)
	}
}

func TestSolveWithCrashes(t *testing.T) {
	rec, err := Solve(SolveConfig{
		Model: MPCR, Validity: RV1,
		N: 6, K: 3, T: 2,
		Inputs: []Value{4, 2, 6, 1, 5, 3},
		Crash:  []ProcessID{0, 3},
		Seed:   7,
	})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if rec.FaultCount() > 2 {
		t.Errorf("fault count %d > t", rec.FaultCount())
	}
}

func TestSolveSharedMemoryProtocolE(t *testing.T) {
	rec, err := Solve(SolveConfig{
		Model: SMCR, Validity: RV2,
		N: 5, K: 2, T: 4,
		Inputs: []Value{9, 9, 9, 9, 9},
		Seed:   3,
	})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	for i, d := range rec.Decisions {
		if rec.Decided[i] && d != 9 {
			t.Errorf("uniform input 9 but %d decided %d (RV2)", i, d)
		}
	}
}

func TestSolveRejectsImpossiblePoint(t *testing.T) {
	_, err := Solve(SolveConfig{
		Model: MPCR, Validity: RV1,
		N: 6, K: 3, T: 3, // t >= k: impossible by Lemma 3.2
		Inputs: []Value{1, 2, 3, 4, 5, 6},
	})
	if err == nil {
		t.Fatal("impossible point accepted")
	}
	if !strings.Contains(err.Error(), "impossible") {
		t.Errorf("error %v should mention impossibility", err)
	}
}

func TestSolveRejectsBadInputs(t *testing.T) {
	six := []Value{1, 2, 3, 4, 5, 6}
	for _, c := range []struct {
		name   string
		model  Model
		inputs []Value
		crash  []ProcessID
		want   string
	}{
		{"wrong input length", MPCR, []Value{1}, nil, "1 inputs for n=6"},
		{"too many crash targets", MPCR, six, []ProcessID{0, 1, 2}, "3 crash targets exceed t=2"},
		{"crash target past n", MPCR, six, []ProcessID{6}, "crash target 6 out of range for n=6"},
		{"negative crash target", MPCR, six, []ProcessID{-1}, "crash target -1 out of range for n=6"},
		{"crash target listed twice", MPCR, six, []ProcessID{4, 4}, "crash target 4 listed twice"},
		{"shared memory crash target past n", SMCR, six, []ProcessID{1, 9}, "crash target 9 out of range for n=6"},
		{"shared memory crash target listed twice", SMCR, six, []ProcessID{2, 2}, "crash target 2 listed twice"},
	} {
		_, err := Solve(SolveConfig{Model: c.model, Validity: RV1, N: 6, K: 3, T: 2, Inputs: c.inputs, Crash: c.crash})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one saying %q", c.name, err, c.want)
		}
	}
}

func TestSolveSharedMemoryWithCrashes(t *testing.T) {
	rec, err := Solve(SolveConfig{
		Model: SMCR, Validity: RV2,
		N: 6, K: 2, T: 5,
		Inputs: []Value{3, 3, 3, 3, 3, 3},
		Crash:  []ProcessID{1, 4},
		Seed:   11,
	})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if rec.FaultCount() > 5 {
		t.Errorf("fault count %d exceeds t", rec.FaultCount())
	}
	for i := 0; i < 6; i++ {
		if !rec.Faulty[i] && rec.Decided[i] && rec.Decisions[i] != 3 {
			t.Errorf("uniform run: %d decided %d", i, rec.Decisions[i])
		}
	}
}

func TestSolveSection2BoundaryCases(t *testing.T) {
	// k = n: trivially solvable in every model, even SV1 under Byzantine
	// failure bounds — everyone decides its own input.
	rec, err := Solve(SolveConfig{
		Model: MPByz, Validity: SV1,
		N: 5, K: 5, T: 4,
		Inputs: []Value{1, 2, 3, 4, 5},
		Seed:   3,
	})
	if err != nil {
		t.Fatalf("k=n Solve: %v", err)
	}
	for i, d := range rec.Decisions {
		if d != rec.Inputs[i] {
			t.Errorf("trivial protocol: %d decided %d, want own input", i, d)
		}
	}
	// k = n over shared memory runs through SIMULATION.
	if _, err := Solve(SolveConfig{
		Model: SMByz, Validity: SV1,
		N: 4, K: 4, T: 3,
		Inputs: []Value{1, 2, 3, 4},
		Seed:   3,
	}); err != nil {
		t.Fatalf("k=n SM Solve: %v", err)
	}
	// t = 0: FloodMin collects everything; SV1 holds.
	rec, err = Solve(SolveConfig{
		Model: MPCR, Validity: SV1,
		N: 5, K: 2, T: 0,
		Inputs: []Value{5, 3, 9, 1, 7},
		Seed:   4,
	})
	if err != nil {
		t.Fatalf("t=0 Solve: %v", err)
	}
	for i, d := range rec.Decisions {
		if d != 1 {
			t.Errorf("t=0 FloodMin: %d decided %d, want global min 1", i, d)
		}
	}
	// k = 1 with failures: classical consensus, refused.
	if _, err := Solve(SolveConfig{
		Model: MPCR, Validity: WV2,
		N: 5, K: 1, T: 1,
		Inputs: []Value{1, 1, 1, 1, 1},
	}); err == nil {
		t.Error("k=1 consensus accepted")
	}
}

func TestCheckFacade(t *testing.T) {
	rec, err := Solve(SolveConfig{
		Model: MPCR, Validity: RV1,
		N: 5, K: 3, T: 2,
		Inputs: []Value{5, 1, 4, 2, 3},
		Seed:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(rec, RV1); err != nil {
		t.Errorf("Check on a solved run: %v", err)
	}
	// Tamper with the record: Check must catch it.
	rec.Decisions[0] = 999
	if err := Check(rec, RV1); err == nil {
		t.Error("Check accepted a tampered record")
	}
}

func TestClassifyFacade(t *testing.T) {
	r := Classify(SMByz, WV2, 64, 2, 64)
	if r.Status != Solvable {
		t.Errorf("SM/Byz WV2 k=2 t=64 should be solvable (Protocol E), got %v", r.Status)
	}
	if !strings.Contains(r.Protocol, "Protocol E") {
		t.Errorf("witness = %q, want Protocol E", r.Protocol)
	}
}

func TestRenderFigureFacade(t *testing.T) {
	out, err := RenderFigure(MPCR, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Figure 2") {
		t.Error("figure header missing")
	}
	if !strings.Contains(RenderLattice(), "SV1") {
		t.Error("lattice missing SV1")
	}
}

// TestFigureSizeRefused: below n = 3 a panel has no cell (k runs over
// [2, n-1]), so both figure entry points return an error instead of
// panicking or rendering empty panels.
func TestFigureSizeRefused(t *testing.T) {
	for _, n := range []int{2, 1, 0, -3} {
		if g, err := ComputeGrid(MPCR, SV1, n); err == nil || g != nil {
			t.Errorf("ComputeGrid(n=%d) = %v, %v; want nil and an error", n, g, err)
		}
		if out, err := RenderFigure(MPCR, n); err == nil || out != "" {
			t.Errorf("RenderFigure(n=%d) = %d bytes, %v; want none and an error", n, len(out), err)
		}
	}
	if _, err := ComputeGrid(MPCR, SV1, 3); err != nil {
		t.Errorf("ComputeGrid(n=3): %v", err)
	}
	if _, err := RenderFigure(MPCR, 3); err != nil {
		t.Errorf("RenderFigure(n=3): %v", err)
	}
}

func TestValidateFacade(t *testing.T) {
	sum, err := Validate(MPCR, RV1, 6, 3, 2, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.OK() {
		t.Errorf("validation failed: %v", sum)
	}
	if _, err := Validate(MPCR, RV1, 6, 3, 3, 8, 1); err == nil {
		t.Error("impossible point accepted by Validate")
	}
}

// TestValidateRejectsNonPositiveRuns: a validation of no runs checks
// nothing, so it is an error and not an OK summary.
func TestValidateRejectsNonPositiveRuns(t *testing.T) {
	for _, runs := range []int{-5, 0} {
		if sum, err := Validate(MPCR, RV1, 8, 3, 2, runs, 1); err == nil || sum != nil {
			t.Errorf("Validate with runs=%d: summary %v, err %v, want only an error", runs, sum, err)
		}
	}
}

// TestUnknownVariantIsAnError: a model or validity outside the paper's is
// an error from Solve and Validate at every point, the Section 2 boundary
// cases (k >= n) included.
func TestUnknownVariantIsAnError(t *testing.T) {
	cases := []struct {
		m    Model
		v    Validity
		k    int
		want error
	}{
		{Model{}, RV1, 2, types.ErrUnknownModel},
		{Model{}, RV1, 4, types.ErrUnknownModel},
		{Model{Comm: types.SharedMemory, Failure: 7}, WV2, 2, types.ErrUnknownModel},
		{MPCR, Validity(0), 2, types.ErrUnknownValidity},
		{MPCR, Validity(0), 4, types.ErrUnknownValidity},
		{SMByz, Validity(9), 3, types.ErrUnknownValidity},
	}
	for _, c := range cases {
		_, err := Solve(SolveConfig{Model: c.m, Validity: c.v, N: 4, K: c.k, T: 1, Inputs: []Value{1, 2, 3, 4}, Seed: 1})
		if !errors.Is(err, c.want) {
			t.Errorf("Solve(%v, %v, k=%d): err = %v, want %v", c.m, c.v, c.k, err, c.want)
		}
		if _, err := Validate(c.m, c.v, 4, c.k, 1, 4, 1); !errors.Is(err, c.want) {
			t.Errorf("Validate(%v, %v, k=%d): err = %v, want %v", c.m, c.v, c.k, err, c.want)
		}
	}
}

func TestWriteGridCSVFacade(t *testing.T) {
	g, err := ComputeGrid(MPCR, RV1, 8)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := WriteGridCSV(&b, g); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.String(), "model,validity") {
		t.Error("CSV header missing")
	}
}
