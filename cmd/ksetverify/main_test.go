package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kset/internal/theory"
	"kset/internal/trace"
	"kset/internal/types"
)

func TestVerifyOneFigureQuick(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-fig", "2", "-n", "8", "-runs", "6", "-samples", "2", "-seed", "3"}, &b)
	if err != nil {
		t.Fatalf("%v\n%s", err, b.String())
	}
	out := b.String()
	if !strings.Contains(out, "=== Figure 2 (MP/CR, n=8) ===") {
		t.Errorf("figure header missing:\n%s", out)
	}
	if !strings.Contains(out, "all sampled cells validated") {
		t.Errorf("success line missing:\n%s", out)
	}
	// Every panel line present.
	for _, v := range []string{"SV1", "SV2", "RV1", "RV2", "WV1", "WV2"} {
		if !strings.Contains(out, v+" ") {
			t.Errorf("panel %s missing:\n%s", v, out)
		}
	}
}

func TestVerifyConstructions(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-constructions", "-n", "9"}, &b); err != nil {
		t.Fatalf("%v\n%s", err, b.String())
	}
	out := b.String()
	for _, name := range []string{
		"lemma3.2-floodmin", "lemma3.3-protocolA", "lemma3.5-floodmin",
		"lemma3.10-floodmin", "lemma4.3-protocolF", "lemma4.9-protocolE",
	} {
		if !strings.Contains(out, name) {
			t.Errorf("construction %s missing:\n%s", name, out)
		}
	}
	if strings.Contains(out, "NO VIOLATION EXHIBITED") {
		t.Errorf("a construction failed to violate:\n%s", out)
	}
}

// TestWorkersDeterminism is the parallel-sweep regression gate: the full
// ksetverify output must be byte-identical whether cells validate serially
// or fan out across 8 workers.
func TestWorkersDeterminism(t *testing.T) {
	outputFor := func(args ...string) string {
		var b strings.Builder
		if err := run(args, &b); err != nil {
			t.Fatalf("run(%v): %v\n%s", args, err, b.String())
		}
		return b.String()
	}

	serial := outputFor("-fig", "2", "-n", "8", "-runs", "6", "-samples", "2", "-seed", "3", "-workers", "1")
	parallel := outputFor("-fig", "2", "-n", "8", "-runs", "6", "-samples", "2", "-seed", "3", "-workers", "8")
	if serial != parallel {
		t.Errorf("figure output differs between -workers 1 and 8:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}

	serialCons := outputFor("-constructions", "-n", "9", "-workers", "1")
	parallelCons := outputFor("-constructions", "-n", "9", "-workers", "8")
	if serialCons != parallelCons {
		t.Errorf("construction output differs between -workers 1 and 8:\n--- serial ---\n%s\n--- parallel ---\n%s", serialCons, parallelCons)
	}
}

func TestVerifyUnknownFigure(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-fig", "7"}, &b); err == nil {
		t.Error("unknown figure accepted")
	}
}

func TestSaveFailureWritesReplayableArtifact(t *testing.T) {
	// Healthy cells never violate, so exercise the capture/save plumbing
	// directly; ksetreplay's tests cover violating artifacts end to end.
	dir := t.TempDir()
	g := &theory.Grid{Model: types.SMCR, Validity: types.RV1, N: 4}
	path, err := saveFailure(dir, g, theory.CellPoint{K: 2, T: 1}, 12345)
	if err != nil {
		t.Fatalf("saveFailure: %v", err)
	}
	want := filepath.Join(dir, "sm-cr-rv1-n4-k2-t1-seed12345.ktr")
	if path != want {
		t.Errorf("path %q, want %q", path, want)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Decode(data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	res, err := trace.Replay(tr)
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if res.Verdict != tr.Verdict {
		t.Errorf("saved artifact does not verify: %v vs %v", res.Verdict, tr.Verdict)
	}
}

func TestSaveFailuresFlagCreatesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "failures")
	var b strings.Builder
	err := run([]string{"-fig", "2", "-n", "6", "-runs", "2", "-samples", "1", "-save-failures", dir}, &b)
	if err != nil {
		t.Fatalf("%v\n%s", err, b.String())
	}
	if _, err := os.Stat(dir); err != nil {
		t.Errorf("save dir not created: %v", err)
	}
}
