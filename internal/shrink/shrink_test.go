package shrink

import (
	"bytes"
	"testing"

	"kset/internal/harness"
	"kset/internal/prng"
	"kset/internal/sweep"
	"kset/internal/theory"
	"kset/internal/trace"
	"kset/internal/types"
)

// sweeper is the part of harness.MPSweep and harness.SMSweep violatingTrace
// uses.
type sweeper interface {
	Execute() *harness.Summary
	Capture(runSeed uint64) (*trace.Trace, *types.RunRecord, error)
}

// violatingTrace captures a reproducible violation by sweeping a protocol
// outside its solvable region and capturing the first violating run seed.
func violatingTrace(t *testing.T, s sweeper) *trace.Trace {
	t.Helper()
	sum := s.Execute()
	if len(sum.Violations) == 0 {
		t.Fatalf("sweep %q found no violation; pick harsher parameters", sum.Name)
	}
	tr, _, err := s.Capture(sum.Violations[0].Seed)
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	if tr.Verdict.OK {
		t.Fatalf("captured artifact is ok")
	}
	return tr
}

func floodMinByzSweep() *harness.MPSweep {
	spec := trace.ProtocolSpec{Proto: theory.ProtoFloodMin}
	factory, err := spec.MPFactory()
	if err != nil {
		panic(err)
	}
	return &harness.MPSweep{
		Name: "floodmin-byz", N: 5, K: 2, T: 2, Validity: types.RV1,
		NewProtocol: factory,
		Byzantine:   true,
		Runs:        64,
		BaseSeed:    1,
		Spec:        spec,
	}
}

// simFloodMinByzSweep is FloodMin through SIMULATION in shared memory with
// Byzantine processes, the sweep behind the corpus's SM/Byz RV1 artifact.
func simFloodMinByzSweep() *harness.SMSweep {
	spec := trace.ProtocolSpec{Proto: theory.ProtoFloodMin, Sim: true}
	factory, err := spec.SMFactory()
	if err != nil {
		panic(err)
	}
	return &harness.SMSweep{
		Name: "sim-floodmin-byz", N: 5, K: 2, T: 2, Validity: types.RV1,
		NewProtocol: factory,
		Byzantine:   true,
		Runs:        64,
		BaseSeed:    1,
		Spec:        spec,
	}
}

func cost(t *trace.Trace) [4]int {
	distinct := map[types.Value]bool{}
	for _, v := range t.Inputs {
		distinct[v] = true
	}
	return [4]int{len(t.Schedule), len(t.Byzantine) + len(t.Crashes), len(distinct), t.N}
}

func TestMinimizeKeepsViolationAndShrinks(t *testing.T) {
	for _, c := range []struct {
		name  string
		sweep sweeper
	}{
		{"mp-floodmin-byz", floodMinByzSweep()},
		{"sm-sim-floodmin-byz", simFloodMinByzSweep()},
	} {
		t.Run(c.name, func(t *testing.T) {
			tr := violatingTrace(t, c.sweep)
			min, stats, err := Minimize(tr, Options{})
			if err != nil {
				t.Fatalf("Minimize: %v", err)
			}
			if min.Verdict.OK || min.Verdict.Condition != tr.Verdict.Condition {
				t.Fatalf("minimized verdict %v, want condition %q", min.Verdict, tr.Verdict.Condition)
			}
			// The minimized artifact must still reproduce from scratch.
			v, err := trace.Evaluate(min)
			if err != nil {
				t.Fatalf("Evaluate(min): %v", err)
			}
			if v != min.Verdict {
				t.Fatalf("minimized artifact does not reproduce: %v vs %v", v, min.Verdict)
			}
			before, after := cost(tr), cost(min)
			for i := range after {
				if after[i] > before[i] {
					t.Errorf("cost component %d grew: %d -> %d", i, before[i], after[i])
				}
			}
			if after == before {
				t.Logf("note: nothing shrank (already minimal): %v", after)
			}
			if stats.Candidates == 0 {
				t.Errorf("no candidates evaluated")
			}
			if len(min.Schedule) == len(tr.Schedule) && len(tr.Schedule) > 0 {
				t.Errorf("schedule not truncated at all (len %d); truncate pass inert?", len(tr.Schedule))
			}
		})
	}
}

// TestRetireStaysInModel: retiring a process offers a candidate while
// n > t, and none once t = n, since a smaller n would put t above it.
func TestRetireStaysInModel(t *testing.T) {
	for _, c := range []struct {
		n, t  int
		cands int
	}{
		{5, 4, 1},
		{4, 4, 0},
		{1, 0, 0},
	} {
		tr := &trace.Trace{N: c.n, T: c.t, Inputs: make([]types.Value, c.n)}
		got := retireCandidates(tr)
		if len(got) != c.cands {
			t.Errorf("n=%d t=%d: %d retire candidates, want %d", c.n, c.t, len(got), c.cands)
		}
		for _, r := range got {
			if r.T > r.N {
				t.Errorf("n=%d t=%d: candidate at n=%d, below t", c.n, c.t, r.N)
			}
		}
	}
}

// TestMinimizeDeterministicAcrossWorkers is the regression test for the
// deterministic first-success rule: the same input must minimize to the
// byte-identical artifact at one worker and at eight.
func TestMinimizeDeterministicAcrossWorkers(t *testing.T) {
	tr := violatingTrace(t, floodMinByzSweep())
	serial, _, err := Minimize(tr, Options{})
	if err != nil {
		t.Fatalf("Minimize(serial): %v", err)
	}
	pool := sweep.NewPool(8)
	parallel, _, err := Minimize(tr, Options{Exec: pool.Map})
	if err != nil {
		t.Fatalf("Minimize(8 workers): %v", err)
	}
	a, err := trace.Encode(serial)
	if err != nil {
		t.Fatalf("Encode(serial): %v", err)
	}
	b, err := trace.Encode(parallel)
	if err != nil {
		t.Fatalf("Encode(parallel): %v", err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("worker count changed the minimized artifact:\n%s\nvs\n%s", a, b)
	}
}

func TestMinimizeRejectsHealthyArtifact(t *testing.T) {
	spec := trace.ProtocolSpec{Proto: theory.ProtoFloodMin}
	factory, err := spec.MPFactory()
	if err != nil {
		t.Fatal(err)
	}
	s := &harness.MPSweep{
		Name: "healthy", N: 4, K: 2, T: 1, Validity: types.RV1,
		NewProtocol: factory,
		Runs:        1,
		BaseSeed:    5,
		Spec:        spec,
	}
	sum := s.Execute()
	if len(sum.Violations) != 0 {
		t.Fatalf("expected a clean sweep, got %d violations", len(sum.Violations))
	}
	// Re-derive the run seed the same way Execute does.
	tr, _, err := s.Capture(firstRunSeed(5))
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	if !tr.Verdict.OK {
		t.Fatalf("expected ok verdict, got %v", tr.Verdict)
	}
	if _, _, err := Minimize(tr, Options{}); err == nil {
		t.Fatalf("Minimize accepted a healthy artifact")
	}
}

// firstRunSeed re-derives the first per-run seed Execute draws.
func firstRunSeed(baseSeed uint64) uint64 {
	return prng.New(baseSeed).Uint64()
}
