package main

import (
	"strings"
	"testing"
)

func TestReportCommand(t *testing.T) {
	var b strings.Builder
	err := run([]string{"-n", "8", "-runs", "4", "-samples", "1", "-gridn", "12"}, &b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "region cell counts at n=12") {
		t.Errorf("gridn flag ignored:\n%s", b.String()[:200])
	}
	if !strings.Contains(b.String(), "All sampled cells validated.") {
		t.Error("validation summary missing")
	}
}

func TestReportBadFlag(t *testing.T) {
	var b strings.Builder
	if err := run([]string{"-bogus"}, &b); err == nil {
		t.Error("unknown flag accepted")
	}
}

// TestReportRejectsSizesThatCheckNothing: a sweep of no runs, no sampled
// cells or a size without figure cells validates nothing (-gridn -5
// panicked, -samples 0 and -gridn 0 fell back to defaults), so it is
// refused, naming the flag, and writes nothing.
func TestReportRejectsSizesThatCheckNothing(t *testing.T) {
	for _, args := range [][]string{{"-runs", "-2"}, {"-runs", "0"}, {"-samples", "0"}, {"-samples", "-1"}, {"-n", "0"}, {"-gridn", "-5"}, {"-gridn", "0"}} {
		var b strings.Builder
		err := run(append([]string{"-n", "8", "-gridn", "12"}, args...), &b)
		if err == nil || !strings.Contains(err.Error(), args[0]+" "+args[1]) {
			t.Errorf("%v: err = %v, want one naming %s %s", args, err, args[0], args[1])
		}
		if b.Len() != 0 {
			t.Errorf("%v: wrote a report:\n%s", args, b.String())
		}
	}
}
