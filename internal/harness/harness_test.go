package harness

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"kset/internal/prng"
	"kset/internal/sweep"
	"kset/internal/theory"
	"kset/internal/trace"
	"kset/internal/types"
)

func TestGenInputsShapes(t *testing.T) {
	rng := prng.New(1)
	faulty := []bool{false, true, false, false, true, false}

	uni := GenInputsInto(nil, Uniform, 6, nil, rng)
	for _, v := range uni[1:] {
		if v != uni[0] {
			t.Fatalf("Uniform not uniform: %v", uni)
		}
	}

	uc := GenInputsInto(nil, UniformCorrect, 6, faulty, rng)
	var correct types.Value
	seen := false
	for i, v := range uc {
		if faulty[i] {
			continue
		}
		if !seen {
			correct, seen = v, true
		} else if v != correct {
			t.Fatalf("UniformCorrect: correct inputs differ: %v", uc)
		}
	}
	deviates := false
	for i, v := range uc {
		if faulty[i] && v != correct {
			deviates = true
		}
	}
	if !deviates {
		t.Errorf("UniformCorrect: faulty inputs should deviate: %v (faulty %v)", uc, faulty)
	}

	dist := GenInputsInto(nil, Distinct, 6, nil, rng)
	set := map[types.Value]bool{}
	for _, v := range dist {
		set[v] = true
	}
	if len(set) != 6 {
		t.Fatalf("Distinct produced duplicates: %v", dist)
	}

	two := GenInputsInto(nil, TwoValues, 32, nil, rng)
	set = map[types.Value]bool{}
	for _, v := range two {
		set[v] = true
	}
	if len(set) > 2 {
		t.Fatalf("TwoValues produced %d values: %v", len(set), two)
	}
}

// genArgs is a quick generator for (pattern, n, seed).
type genArgs struct {
	Pattern InputPattern
	N       int
	Seed    uint64
}

// Generate implements quick.Generator.
func (genArgs) Generate(r *rand.Rand, _ int) reflect.Value {
	ps := AllPatterns()
	return reflect.ValueOf(genArgs{
		Pattern: ps[r.Intn(len(ps))],
		N:       r.Intn(64) + 1,
		Seed:    r.Uint64(),
	})
}

// TestGenInputsAlwaysCorrectLength: every pattern yields exactly n inputs,
// deterministically in the seed.
func TestGenInputsAlwaysCorrectLength(t *testing.T) {
	prop := func(a genArgs) bool {
		one := GenInputsInto(nil, a.Pattern, a.N, nil, prng.New(a.Seed))
		two := GenInputsInto(nil, a.Pattern, a.N, nil, prng.New(a.Seed))
		if len(one) != a.N || len(two) != a.N {
			return false
		}
		for i := range one {
			if one[i] != two[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestMPFactoryCoversEveryMPProtocol: the MP factory the harness builds
// from a classification (trace.SpecFor) covers every MP protocol, and
// refuses an SM protocol, an impossible cell and Protocol C without l.
func TestMPFactoryCoversEveryMPProtocol(t *testing.T) {
	for _, id := range []theory.ProtocolID{
		theory.ProtoFloodMin, theory.ProtoA, theory.ProtoB, theory.ProtoC, theory.ProtoD,
	} {
		r := theory.Result{Status: theory.Solvable, Proto: id, EchoEll: 1}
		factory, err := trace.SpecFor(r).MPFactory()
		if err != nil {
			t.Errorf("%v: %v", id, err)
			continue
		}
		if factory(0) == nil {
			t.Errorf("%v: nil protocol", id)
		}
	}
	// SM protocols are rejected.
	if _, err := trace.SpecFor(theory.Result{Status: theory.Solvable, Proto: theory.ProtoE}).MPFactory(); err == nil {
		t.Error("MPFactory accepted Protocol E")
	}
	// Non-solvable cells are rejected.
	if _, err := trace.SpecFor(theory.Result{Status: theory.Impossible}).MPFactory(); err == nil {
		t.Error("MPFactory accepted an impossible cell")
	}
	// Protocol C needs a valid l.
	if _, err := trace.SpecFor(theory.Result{Status: theory.Solvable, Proto: theory.ProtoC}).MPFactory(); err == nil {
		t.Error("MPFactory accepted Protocol C without l")
	}
}

// TestSMFactoryCoversNativeAndSimulated: the SM factory the harness builds
// from a classification covers E, F and a simulated MP protocol, and
// refuses an MP protocol without the simulation flag.
func TestSMFactoryCoversNativeAndSimulated(t *testing.T) {
	for _, id := range []theory.ProtocolID{theory.ProtoE, theory.ProtoF} {
		r := theory.Result{Status: theory.Solvable, Proto: id}
		if _, err := trace.SpecFor(r).SMFactory(); err != nil {
			t.Errorf("%v: %v", id, err)
		}
	}
	// Simulated MP protocol.
	r := theory.Result{Status: theory.Solvable, Proto: theory.ProtoB, ViaSimulation: true}
	factory, err := trace.SpecFor(r).SMFactory()
	if err != nil {
		t.Fatal(err)
	}
	if factory(1) == nil {
		t.Fatal("nil simulated protocol")
	}
	// An MP protocol without the simulation flag is rejected.
	if _, err := trace.SpecFor(theory.Result{Status: theory.Solvable, Proto: theory.ProtoB}).SMFactory(); err == nil {
		t.Error("SMFactory accepted a raw MP protocol")
	}
}

// TestValidateCellRuns: a negative CellOpts.Runs is an error, and 0 is the
// documented default of 32 runs.
func TestValidateCellRuns(t *testing.T) {
	if sum, err := ValidateCell(types.MPCR, types.RV1, 8, 3, 2, CellOpts{Runs: -5, Seed: 1}); err == nil || sum != nil {
		t.Errorf("Runs -5: summary %v, err %v, want only an error", sum, err)
	}
	sum, err := ValidateCell(types.MPCR, types.RV1, 8, 3, 2, CellOpts{Seed: 1})
	if err != nil || sum.Runs != 32 || !sum.OK() {
		t.Errorf("Runs 0: summary %v, err %v, want 32 runs that held", sum, err)
	}
}

func TestValidateCellRejectsNonSolvable(t *testing.T) {
	if _, err := ValidateCell(types.MPCR, types.SV1, 8, 3, 1, CellOpts{Runs: 4, Seed: 1}); err == nil {
		t.Error("ValidateCell accepted an impossible cell")
	}
}

// TestExecutorRun checks the nil-means-serial helper: a nil Executor runs
// every job in order on the caller, a non-nil one is handed the jobs.
func TestExecutorRun(t *testing.T) {
	var got []int
	Executor(nil).Run(4, func(i int) { got = append(got, i) })
	if !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Fatalf("nil executor ran %v, want 0..3 in order", got)
	}
	slots := make([]int, 64)
	Executor(sweep.NewPool(4).Map).Run(len(slots), func(i int) { slots[i] = i + 1 })
	for i, v := range slots {
		if v != i+1 {
			t.Fatalf("pool executor: slot %d = %d", i, v)
		}
	}
}

func TestSummaryString(t *testing.T) {
	s := &Summary{Name: "demo", Runs: 10}
	if got := s.String(); !strings.Contains(got, "all conditions held") {
		t.Errorf("clean summary: %q", got)
	}
	s.addViolation(1, scenario{}, errFake("boom"), &types.RunRecord{})
	if got := s.String(); !strings.Contains(got, "1 violations") || !strings.Contains(got, "boom") {
		t.Errorf("dirty summary: %q", got)
	}
	if s.OK() {
		t.Error("summary with violations reported OK")
	}
}

func TestSummaryCapsRecordedOutcomes(t *testing.T) {
	s := &Summary{}
	for i := 0; i < 100; i++ {
		s.addViolation(uint64(i), scenario{}, errFake("v"), &types.RunRecord{})
		s.addRunError(uint64(i), scenario{}, errFake("e"))
	}
	if len(s.Violations) != maxRecordedOutcomes || len(s.RunErrors) != maxRecordedOutcomes {
		t.Errorf("outcome caps not applied: %d, %d", len(s.Violations), len(s.RunErrors))
	}
}

type errFake string

func (e errFake) Error() string { return string(e) }

func TestMPSweepIsDeterministicInBaseSeed(t *testing.T) {
	// Determinism is observed through the aggregate counters of a real
	// sweep: same base seed, same totals.
	run := func() (int64, int64) {
		factory, err := trace.SpecFor(theory.Classify(types.MPCR, types.RV1, 6, 3, 2)).MPFactory()
		if err != nil {
			t.Fatal(err)
		}
		s := &MPSweep{
			Name: "det", N: 6, K: 3, T: 2,
			Validity:    types.RV1,
			NewProtocol: factory,
			Runs:        16,
			BaseSeed:    77,
		}
		sum := s.Execute()
		if !sum.OK() {
			t.Fatalf("sweep failed: %v", sum)
		}
		return sum.Events, sum.Messages
	}
	e1, m1 := run()
	e2, m2 := run()
	if e1 != e2 || m1 != m2 {
		t.Errorf("sweep not deterministic: (%d,%d) vs (%d,%d)", e1, m1, e2, m2)
	}
}
