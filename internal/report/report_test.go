package report

import (
	"os"
	"strings"
	"testing"
)

// withoutBanner drops the final wall-clock line, the one part of a report
// that differs from run to run.
func withoutBanner(report string) string {
	if i := strings.LastIndex(report, "\nGenerated in "); i >= 0 {
		return report[:i]
	}
	return report
}

// TestReportMatchesCheckedIn regenerates docs/report.md with what `make
// report` runs and requires the checked-in file, banner aside: a change that
// moves any figure of the report has to regenerate it.
func TestReportMatchesCheckedIn(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation")
	}
	want, err := os.ReadFile("../../docs/report.md")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := Run(&b, Config{N: 12, Runs: 16, Samples: 3, Seed: 1, GridN: 64}); err != nil {
		t.Fatal(err)
	}
	if got := withoutBanner(b.String()); got != withoutBanner(string(want)) {
		t.Errorf("docs/report.md is stale: regenerate it with `make report`\n--- generated ---\n%s", got)
	}
}

func TestReportEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full evaluation")
	}
	var b strings.Builder
	err := Run(&b, Config{N: 8, Runs: 6, Samples: 1, Seed: 3, GridN: 16})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# k-set consensus reproduction report",
		"## Figure 1: validity lattice",
		"- SV1 implies SV2",
		"## Figures 2/4/5/6: region cell counts at n=16",
		"### Figure 2 (MP/CR)",
		"### Figure 6 (SM/Byz)",
		"## Empirical validation of solvable cells (n=8)",
		"All sampled cells validated.",
		"## Impossibility constructions (n=8)",
		"agreement violated",
		"## Terminating-protocol experiment",
		"| Protocol D | terminates | wedges |",
		"## Agreement tightness",
		"## Exhaustive small-scope rederivation",
		"| FloodMin | RV1 | EXACT: t < k | 12 |",
		"| Protocol A | RV2 | EXACT: kt < (k-1)n | 12 |",
		"| Protocol B | SV2 | EXACT: 2kt < (k-1)n | 12 |",
		"## Open-gap probes: MP/CR SV2 at n=6",
		"| k=2 t=2 | open | fails — gap open for other protocols |",
		"## Decision latency profile",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if strings.Contains(out, "FAILED") || strings.Contains(out, "NO VIOLATION") {
		t.Errorf("report contains failures:\n%s", out)
	}
}

// TestWorkersDeterminism checks the parallel-report guarantee: the rendered
// report is byte-identical whether jobs run serially or across 8 workers.
// Only the wall-clock banner on the final line may differ.
func TestWorkersDeterminism(t *testing.T) {
	reportFor := func(workers int) string {
		var b strings.Builder
		if err := Run(&b, Config{N: 6, Runs: 4, Samples: 1, Seed: 3, GridN: 10, Workers: workers}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return withoutBanner(b.String())
	}
	serial := reportFor(1)
	parallel := reportFor(8)
	if serial != parallel {
		t.Errorf("report differs between Workers=1 and Workers=8:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
}

func TestConfigDefaults(t *testing.T) {
	var c Config
	c.defaults()
	if c.N != 10 || c.Runs != 16 || c.Samples != 3 || c.GridN != 64 {
		t.Errorf("defaults wrong: %+v", c)
	}
	c2 := Config{N: 5, Runs: 2, Samples: 1, GridN: 8}
	c2.defaults()
	if c2.N != 5 || c2.GridN != 8 {
		t.Errorf("explicit values overridden: %+v", c2)
	}
}
