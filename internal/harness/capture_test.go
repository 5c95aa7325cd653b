package harness

import (
	"errors"
	"reflect"
	"testing"

	"kset/internal/checker"
	"kset/internal/mpnet"
	"kset/internal/prng"
	"kset/internal/theory"
	"kset/internal/trace"
	"kset/internal/types"
)

// sweepSeeds re-derives the per-run seeds Execute draws from BaseSeed.
func sweepSeeds(baseSeed uint64, runs int) []uint64 {
	master := prng.New(baseSeed)
	seeds := make([]uint64, runs)
	for i := range seeds {
		seeds[i] = master.Uint64()
	}
	return seeds
}

// captureAndReplay asserts the artifact round-trips through the codec and
// replays to the identical decision stream and verdict.
func captureAndReplay(t *testing.T, tr *trace.Trace, rec *types.RunRecord) {
	t.Helper()
	data, err := trace.Encode(tr)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	dec, err := trace.Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	res, err := trace.Replay(dec)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if !reflect.DeepEqual(res.Schedule, tr.Schedule) {
		t.Errorf("replay schedule diverged (len %d vs %d)", len(res.Schedule), len(tr.Schedule))
	}
	if res.Verdict != tr.Verdict {
		t.Errorf("replay verdict %v, want %v", res.Verdict, tr.Verdict)
	}
	if !reflect.DeepEqual(res.Record.Decisions, rec.Decisions) {
		t.Errorf("replay decisions %v, want %v", res.Record.Decisions, rec.Decisions)
	}
}

// TestMPSweepCaptureReplay captures scenarios exactly as a Byzantine sweep
// planned them (same per-run seeds, same rng stream) and checks each one
// replays from its artifact with full fidelity.
func TestMPSweepCaptureReplay(t *testing.T) {
	r := theory.Classify(types.MPByz, types.SV2, 7, 2, 1)
	if r.Status != theory.Solvable {
		t.Fatalf("cell unexpectedly %v", r.Status)
	}
	factory, err := trace.SpecFor(r).MPFactory()
	if err != nil {
		t.Fatalf("MPFactory: %v", err)
	}
	s := &MPSweep{
		Name: "capture", N: 7, K: 2, T: 1, Validity: types.SV2,
		NewProtocol: factory,
		Byzantine:   true,
		BaseSeed:    42,
		Spec:        trace.SpecFor(r),
	}
	for _, seed := range sweepSeeds(42, 6) {
		tr, rec, err := s.Capture(seed)
		if err != nil {
			t.Fatalf("Capture(%d): %v", seed, err)
		}
		captureAndReplay(t, tr, rec)
	}
}

// TestSMSweepCaptureReplay is the shared-memory analogue, over crash
// scenarios with delaying schedulers.
func TestSMSweepCaptureReplay(t *testing.T) {
	r := theory.Classify(types.SMCR, types.RV1, 5, 3, 2)
	if r.Status != theory.Solvable {
		t.Fatalf("cell unexpectedly %v", r.Status)
	}
	factory, err := trace.SpecFor(r).SMFactory()
	if err != nil {
		t.Fatalf("SMFactory: %v", err)
	}
	s := &SMSweep{
		Name: "capture", N: 5, K: 3, T: 2, Validity: types.RV1,
		NewProtocol: factory,
		BaseSeed:    7,
		Spec:        trace.SpecFor(r),
	}
	for _, seed := range sweepSeeds(7, 6) {
		tr, rec, err := s.Capture(seed)
		if err != nil {
			t.Fatalf("Capture(%d): %v", seed, err)
		}
		captureAndReplay(t, tr, rec)
	}
}

// TestCaptureMatchesSweepViolation runs a protocol outside its solvable
// region, takes a violation the sweep found, and checks that capturing the
// same run seed reproduces the very same violation in the artifact.
func TestCaptureMatchesSweepViolation(t *testing.T) {
	// FloodMin in the Byzantine model: equivocation breaks it readily.
	s := &MPSweep{
		Name: "floodmin-byz", N: 5, K: 2, T: 2, Validity: types.RV1,
		NewProtocol: mustSpecFactory(t, trace.ProtocolSpec{Proto: theory.ProtoFloodMin}),
		Byzantine:   true,
		Runs:        64,
		BaseSeed:    1,
		Spec:        trace.ProtocolSpec{Proto: theory.ProtoFloodMin},
	}
	sum := s.Execute()
	if len(sum.Violations) == 0 {
		t.Skip("no violation found at this seed; sweep parameters too tame")
	}
	out := sum.Violations[0]
	tr, rec, err := s.Capture(out.Seed)
	if err != nil {
		t.Fatalf("Capture(%d): %v", out.Seed, err)
	}
	if tr.Verdict.OK {
		t.Fatalf("capture of violating seed %d came back ok", out.Seed)
	}
	var viol *checker.Violation
	if !errors.As(out.Err, &viol) {
		t.Fatalf("sweep violation is %T, want *checker.Violation", out.Err)
	}
	if tr.Verdict.Condition != viol.Condition {
		t.Errorf("captured condition %q, sweep found %q", tr.Verdict.Condition, viol.Condition)
	}
	captureAndReplay(t, tr, rec)
}

func mustSpecFactory(t *testing.T, spec trace.ProtocolSpec) func(types.ProcessID) mpnet.Protocol {
	t.Helper()
	f, err := spec.MPFactory()
	if err != nil {
		t.Fatalf("MPFactory: %v", err)
	}
	return f
}
