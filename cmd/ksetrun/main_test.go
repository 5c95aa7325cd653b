package main

import (
	"strings"
	"testing"

	"kset/internal/adversary"
)

func TestSolvableRunOutcome(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-model", "mp/cr", "-validity", "rv1",
		"-n", "6", "-k", "3", "-t", "2", "-quiet"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"solvable via FloodMin", "termination  ok", "agreement    ok", "RV1          ok"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSharedMemoryRun(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-model", "sm/cr", "-validity", "rv2",
		"-n", "5", "-k", "2", "-t", "4", "-quiet", "-inputs", "3,3,3,3,3"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Protocol E") {
		t.Errorf("expected Protocol E:\n%s", b.String())
	}
	if !strings.Contains(b.String(), "RV2          ok") {
		t.Errorf("RV2 check missing:\n%s", b.String())
	}
}

func TestImpossiblePointIsRejected(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-model", "mp/cr", "-validity", "rv1",
		"-n", "6", "-k", "3", "-t", "3", "-quiet"}, &b)
	if err == nil {
		t.Fatal("impossible point accepted")
	}
	if !strings.Contains(b.String(), "impossible") {
		t.Errorf("classification missing:\n%s", b.String())
	}
}

func TestDemoList(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-demo", "list"}, &b); err != nil {
		t.Fatal(err)
	}
	for _, e := range adversary.Registry {
		if !strings.Contains(b.String(), e.Name) {
			t.Errorf("demo list missing %s", e.Name)
		}
	}
}

func TestDemoLemma33ShowsViolation(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-demo", "lemma3.3", "-n", "8", "-k", "2", "-t", "5", "-quiet"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "agreement    VIOLATED") {
		t.Errorf("violation not shown:\n%s", b.String())
	}
}

func TestDemoUnknownName(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-demo", "lemma9.9"}, &b); err == nil {
		t.Error("unknown demo accepted")
	}
}

func TestDiagramOutput(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-model", "mp/cr", "-validity", "rv1",
		"-n", "4", "-k", "3", "-t", "1", "-diagram"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "DECIDES") {
		t.Errorf("diagram missing decisions:\n%s", b.String())
	}
}

func TestParseInputs(t *testing.T) {
	vals, err := parseInputs("", 3)
	if err != nil || len(vals) != 3 || vals[2] != 3 {
		t.Errorf("default inputs: %v, %v", vals, err)
	}
	vals, err = parseInputs("5, -2, 7", 3)
	if err != nil || vals[1] != -2 {
		t.Errorf("explicit inputs: %v, %v", vals, err)
	}
	if _, err := parseInputs("1,2", 3); err == nil {
		t.Error("wrong count accepted")
	} else if !strings.Contains(err.Error(), "2") || !strings.Contains(err.Error(), "3") {
		t.Errorf("length-mismatch error should name both counts: %v", err)
	}
	if _, err := parseInputs("1,x,3", 3); err == nil {
		t.Error("non-numeric accepted")
	}
}

func TestLiveMessagePassingRun(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-live", "-model", "mp/cr", "-validity", "rv1",
		"-n", "6", "-k", "3", "-t", "2", "-seed", "4"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"loopback cluster: 6 nodes over TCP", "termination  ok", "agreement    ok", "RV1          ok"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestLiveRefusesSharedMemoryAndByzantine(t *testing.T) {
	for _, model := range []string{"sm/cr", "mp/byz"} {
		var b strings.Builder
		err := run([]string{"-live", "-model", model, "-validity", "wv2",
			"-n", "8", "-k", "4", "-t", "1", "-seed", "4"}, &b)
		if err == nil || !strings.Contains(err.Error(), "-live") {
			t.Errorf("%s: err = %v, want a refusal naming -live", model, err)
		}
	}
}

func TestLiveDiagramConflict(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-live", "-diagram", "-model", "mp/cr",
		"-n", "6", "-k", "3", "-t", "2"}, &b)
	if err == nil {
		t.Fatal("expected -live/-diagram conflict error")
	}
}
