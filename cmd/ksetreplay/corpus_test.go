package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"kset/internal/harness"
	"kset/internal/shrink"
	"kset/internal/theory"
	"kset/internal/trace"
	"kset/internal/types"
)

const corpusDir = "../../testdata/traces"

// corpusCase is one checked-in counterexample: a protocol swept outside its
// solvable region until it violates, captured and shrunk. crash marks a
// case whose violation needs a crash, so its artifact keeps a crash line.
type corpusCase struct {
	file     string
	spec     trace.ProtocolSpec
	model    types.Model
	validity types.Validity
	n, k, t  int
	crash    bool
}

var corpusCases = []corpusCase{
	// FloodMin tolerates only crash faults; Byzantine processes break the
	// k-agreement bound.
	{"floodmin-mpbyz-agreement.ktr", trace.ProtocolSpec{Proto: theory.ProtoFloodMin},
		types.MPByz, types.RV1, 5, 2, 2, false},
	// Protocol A's default decision can be a value nobody proposed once a
	// Byzantine process lies about inputs.
	{"protoa-mpbyz-validity.ktr", trace.ProtocolSpec{Proto: theory.ProtoA},
		types.MPByz, types.RV1, 5, 2, 2, false},
	// Protocol B with t past its n/2 bound loses agreement under crashes
	// alone.
	{"protob-mpcr-overt.ktr", trace.ProtocolSpec{Proto: theory.ProtoB},
		types.MPCR, types.SV2, 5, 2, 4, false},
	// Native shared-memory Protocol E against a Byzantine garbage writer.
	{"protoe-smbyz-validity.ktr", trace.ProtocolSpec{Proto: theory.ProtoE},
		types.SMByz, types.RV1, 4, 2, 2, false},
	// FloodMin run through the SIMULATION transformation in shared memory.
	{"sim-floodmin-smbyz.ktr", trace.ProtocolSpec{Proto: theory.ProtoFloodMin, Sim: true},
		types.SMByz, types.RV1, 5, 2, 2, false},
	// FloodMin decides the least value it hears, so a process that crashes
	// partway through broadcasting its input can hand that input to the
	// correct processes: SV1 asks for a correct process's input.
	{"floodmin-mpcr-sv1.ktr", trace.ProtocolSpec{Proto: theory.ProtoFloodMin},
		types.MPCR, types.SV1, 5, 3, 2, true},
	// The same through SIMULATION in shared memory: the crashed process's
	// input reaches the others through its bc/ register.
	{"sim-floodmin-smcr-sv1.ktr", trace.ProtocolSpec{Proto: theory.ProtoFloodMin, Sim: true},
		types.SMCR, types.SV1, 5, 3, 2, true},
}

// captureCase sweeps the case's configuration, captures the first violating
// run, and shrinks it to a minimal artifact.
func captureCase(c corpusCase) (*trace.Trace, error) {
	var tr *trace.Trace
	byz := c.model.Failure == types.Byzantine
	switch c.model.Comm {
	case types.MessagePassing:
		factory, err := c.spec.MPFactory()
		if err != nil {
			return nil, err
		}
		s := &harness.MPSweep{
			Name: c.file, N: c.n, K: c.k, T: c.t, Validity: c.validity,
			NewProtocol: factory, Byzantine: byz,
			Runs: 64, BaseSeed: 1, Spec: c.spec,
		}
		sum := s.Execute()
		if len(sum.Violations) == 0 {
			return nil, errNoViolation(c.file)
		}
		if tr, _, err = s.Capture(sum.Violations[0].Seed); err != nil {
			return nil, err
		}
	case types.SharedMemory:
		factory, err := c.spec.SMFactory()
		if err != nil {
			return nil, err
		}
		s := &harness.SMSweep{
			Name: c.file, N: c.n, K: c.k, T: c.t, Validity: c.validity,
			NewProtocol: factory, Byzantine: byz,
			Runs: 64, BaseSeed: 1, Spec: c.spec,
		}
		sum := s.Execute()
		if len(sum.Violations) == 0 {
			return nil, errNoViolation(c.file)
		}
		if tr, _, err = s.Capture(sum.Violations[0].Seed); err != nil {
			return nil, err
		}
	}
	min, _, err := shrink.Minimize(tr, shrink.Options{})
	if err != nil {
		return nil, err
	}
	return min, nil
}

type errNoViolation string

func (e errNoViolation) Error() string { return "no violation found for " + string(e) }

// TestRegenerateCorpus rebuilds every checked-in artifact. It only runs when
// KSET_REGEN_TRACES=1 is set: the corpus is committed, and regenerating is a
// deliberate act (e.g. after a format or shrinker change).
func TestRegenerateCorpus(t *testing.T) {
	if os.Getenv("KSET_REGEN_TRACES") != "1" {
		t.Skip("set KSET_REGEN_TRACES=1 to regenerate testdata/traces")
	}
	if err := os.MkdirAll(corpusDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, c := range corpusCases {
		tr, err := captureCase(c)
		if err != nil {
			t.Errorf("%s: %v", c.file, err)
			continue
		}
		data, err := trace.Encode(tr)
		if err != nil {
			t.Errorf("%s: %v", c.file, err)
			continue
		}
		path := filepath.Join(corpusDir, c.file)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s: %v", path, tr.Verdict)
	}
}

// TestReplayCorpus replays every checked-in artifact and verifies the
// recorded verdict reproduces, the encoding is canonical, a crash case
// still carries its crash line, and a second shrink is a no-op (the corpus
// is already minimal).
func TestReplayCorpus(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join(corpusDir, "*.ktr"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != len(corpusCases) {
		t.Fatalf("corpus has %d artifacts, want %d (run with KSET_REGEN_TRACES=1 to rebuild)", len(paths), len(corpusCases))
	}
	for _, c := range corpusCases {
		t.Run(c.file, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join(corpusDir, c.file))
			if err != nil {
				t.Fatal(err)
			}
			tr, err := trace.Decode(data)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			canonical, err := trace.Encode(tr)
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			if !bytes.Equal(data, canonical) {
				t.Errorf("artifact is not canonically encoded")
			}
			if tr.Verdict.OK {
				t.Fatalf("corpus artifact has ok verdict; want a violation")
			}
			if c.crash && len(tr.Crashes) == 0 {
				t.Errorf("artifact lost its crash line")
			}
			res, err := trace.Replay(tr)
			if err != nil {
				t.Fatalf("Replay: %v", err)
			}
			if res.Verdict != tr.Verdict {
				t.Errorf("verdict drifted:\n  recorded: %v\n  replayed: %v", tr.Verdict, res.Verdict)
			}
			min, _, err := shrink.Minimize(tr, shrink.Options{})
			if err != nil {
				t.Fatalf("Minimize: %v", err)
			}
			if again, err := trace.Encode(min); err != nil || !bytes.Equal(again, data) {
				t.Errorf("a second shrink changed the artifact (err %v):\n%s", err, again)
			}
		})
	}
}
