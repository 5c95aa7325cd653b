package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestBadModule runs the driver over a fixture module seeded with at least
// one violation per analyzer and checks findings, order, and exit status.
func TestBadModule(t *testing.T) {
	var out, errs strings.Builder
	code := run([]string{"-C", filepath.Join("testdata", "badmod")}, &out, &errs)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, errs.String())
	}
	got := out.String()
	for _, want := range []string{
		"internal/cluster/cluster.go:20:2: errflow.unchecked",
		"internal/cluster/cluster.go:25:2: goroutinelife.leak",
		"internal/cluster/cluster.go:37:2: errflow.unchecked",
		"internal/cluster/cluster.go:37:2: lockheldio.io",
		"internal/mpnet/mpnet.go:6:2: prngflow.import",
		"internal/mpnet/mpnet.go:12:37: determinism.time",
		"internal/mpnet/mpnet.go:18:2: maporder.range",
		"internal/obs/obs.go:18:7: lockdiscipline.blocking",
		"internal/obs/obs.go:25:2: lockdiscipline.return",
		"ksetlint: 9 finding(s)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestRuleFilter narrows the report to one analyzer but keeps the failing
// exit status, for each analyzer in the suite.
func TestRuleFilter(t *testing.T) {
	for _, tc := range []struct {
		rule string
		want int
	}{
		{"lockdiscipline", 2},
		{"errflow", 2},
		{"goroutinelife", 1},
		{"lockheldio", 1},
		{"errflow.unchecked", 2},
	} {
		var out, errs strings.Builder
		code := run([]string{"-C", filepath.Join("testdata", "badmod"), "-rule", tc.rule}, &out, &errs)
		if code != 1 {
			t.Fatalf("-rule %s: exit = %d, want 1", tc.rule, code)
		}
		got := out.String()
		for _, line := range strings.Split(strings.TrimSpace(got), "\n") {
			if !strings.Contains(line, tc.rule) && !strings.HasPrefix(line, "ksetlint:") {
				t.Errorf("-rule %s leaked %q", tc.rule, line)
			}
		}
		if !strings.Contains(got, "ksetlint: "+strconv.Itoa(tc.want)+" finding(s)") {
			t.Errorf("-rule %s: want %d finding(s):\n%s", tc.rule, tc.want, got)
		}
	}
}

// TestJSONOutput checks the machine-readable report: valid JSON, module-root
// relative paths, the full finding set, and the failing exit status.
func TestJSONOutput(t *testing.T) {
	var out, errs strings.Builder
	code := run([]string{"-C", filepath.Join("testdata", "badmod"), "-json"}, &out, &errs)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, errs.String())
	}
	var rep struct {
		Count    int `json:"count"`
		Findings []struct {
			File string `json:"file"`
			Line int    `json:"line"`
			Rule string `json:"rule"`
			Msg  string `json:"msg"`
		} `json:"findings"`
	}
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatalf("-json emitted invalid JSON: %v\n%s", err, out.String())
	}
	if rep.Count != 9 || len(rep.Findings) != 9 {
		t.Fatalf("count = %d, findings = %d, want 9/9", rep.Count, len(rep.Findings))
	}
	first := rep.Findings[0]
	if first.File != "internal/cluster/cluster.go" || first.Rule != "errflow.unchecked" {
		t.Errorf("first finding = %+v, want internal/cluster/cluster.go errflow.unchecked", first)
	}
}

// TestSARIFOutput writes the code-scanning file and checks its shape.
func TestSARIFOutput(t *testing.T) {
	sarif := filepath.Join(t.TempDir(), "ksetlint.sarif")
	var out, errs strings.Builder
	code := run([]string{"-C", filepath.Join("testdata", "badmod"), "-sarif", sarif, "-json"}, &out, &errs)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; stderr: %s", code, errs.String())
	}
	raw, err := os.ReadFile(sarif)
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID string `json:"ruleId"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(raw, &log); err != nil {
		t.Fatalf("invalid SARIF: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 || log.Runs[0].Tool.Driver.Name != "ksetlint" {
		t.Fatalf("unexpected SARIF header: %s", raw[:120])
	}
	if got := len(log.Runs[0].Results); got != 9 {
		t.Errorf("SARIF results = %d, want 9", got)
	}
	rules := make(map[string]bool)
	for _, r := range log.Runs[0].Tool.Driver.Rules {
		rules[r.ID] = true
	}
	for _, id := range []string{"errflow.unchecked", "goroutinelife.leak", "lockheldio.io", "lint.allow"} {
		if !rules[id] {
			t.Errorf("SARIF rule table missing %q", id)
		}
	}
}

// repoLint is the one whole-module lint run of this package: the tests
// that need it share its result, so `go test` loads the module once.
var repoLint struct {
	once      sync.Once
	code      int
	out, errs string
	elapsed   time.Duration
}

func lintRepo() {
	repoLint.once.Do(func() {
		var out, errs strings.Builder
		start := time.Now()
		repoLint.code = run([]string{"-C", filepath.Join("..", "..")}, &out, &errs)
		repoLint.elapsed = time.Since(start)
		repoLint.out, repoLint.errs = out.String(), errs.String()
	})
}

// TestRepoTreeIsClean is the committed-tree gate: the real module must lint
// clean under the full suite, exit 0 and print nothing.
func TestRepoTreeIsClean(t *testing.T) {
	lintRepo()
	if repoLint.code != 0 {
		t.Fatalf("exit = %d, want 0; findings:\n%s%s", repoLint.code, repoLint.out, repoLint.errs)
	}
	if repoLint.out != "" {
		t.Errorf("clean run should print nothing, got:\n%s", repoLint.out)
	}
}

// TestLintRuntimeBudget guards the whole-module wall time of the run
// TestRepoTreeIsClean checks: the suite runs on every CI build, so a
// regression past 5s is a real cost. Load dominates (type-checking the
// module); analyzers are linear walks.
func TestLintRuntimeBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing guard skipped in -short mode")
	}
	lintRepo()
	if repoLint.code != 0 {
		t.Fatalf("exit = %d, want 0:\n%s", repoLint.code, repoLint.out)
	}
	if repoLint.elapsed > 5*time.Second {
		t.Errorf("whole-module lint took %v, budget is 5s", repoLint.elapsed)
	}
}

// TestList reads the fixture module: every analyzer audits every package,
// and the two packages that declare themselves live opt out of
// determinism.
func TestList(t *testing.T) {
	var out, errs strings.Builder
	if code := run([]string{"-list", "-C", filepath.Join("testdata", "badmod")}, &out, &errs); code != 0 {
		t.Fatalf("exit = %d, want 0; stderr: %s", code, errs.String())
	}
	got := out.String()
	for _, a := range []string{
		"determinism:", "maporder:", "prngflow:", "lockdiscipline:",
		"errflow:", "goroutinelife:", "lockheldio:",
	} {
		if !strings.Contains(got, a) {
			t.Errorf("-list missing %q:\n%s", a, got)
		}
	}
	for _, r := range []string{
		"errflow.unchecked: error from an IO-bearing call",
		"goroutinelife.leak: go statement with no provable shutdown path",
		"lockheldio.io: blocking IO call",
		"lint.allow:",
	} {
		if !strings.Contains(got, r) {
			t.Errorf("-list missing rule description %q:\n%s", r, got)
		}
	}
	for _, line := range []string{
		"determinism: every package except kset/internal/cluster kset/internal/obs\n",
		"errflow: every package\n",
		"maporder: every package\n",
		"lint: every package\n",
	} {
		if !strings.Contains(got, line) {
			t.Errorf("-list missing line %q:\n%s", line, got)
		}
	}
}

// TestTypeErrorIsLoadError: a module that does not type-check is not
// linted at all. ksetlint exits 2 with the load error, naming the package
// and the position, and prints no findings, not even the time.Now one in
// this audited package.
func TestTypeErrorIsLoadError(t *testing.T) {
	root := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":                "module kset\n\ngo 1.22\n",
		"internal/mpnet/bad.go": "package mpnet\n\nimport \"time\"\n\nvar x int = \"s\"\n\nvar t0 = time.Now()\n",
	} {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var out, errs strings.Builder
	if code := run([]string{"-C", root}, &out, &errs); code != 2 {
		t.Errorf("exit = %d, want 2", code)
	}
	if !strings.Contains(errs.String(), "package kset/internal/mpnet") || !strings.Contains(errs.String(), "bad.go:5:13") {
		t.Errorf("stderr should name the package and position, got %q", errs.String())
	}
	if out.String() != "" {
		t.Errorf("a load error should print no findings, got:\n%s", out.String())
	}
}

func TestUsageErrors(t *testing.T) {
	var out, errs strings.Builder
	if code := run([]string{"stray-arg"}, &out, &errs); code != 2 {
		t.Errorf("stray arg: exit = %d, want 2", code)
	}
	if code := run([]string{"-C", "testdata/no-such-dir"}, &out, &errs); code != 2 {
		t.Errorf("missing dir: exit = %d, want 2", code)
	}
	// A typo'd filter must not silently report a clean tree.
	if code := run([]string{"-C", filepath.Join("testdata", "badmod"), "-rule", "nosuchrule"}, &out, &errs); code != 2 {
		t.Errorf("unknown rule: exit = %d, want 2", code)
	}
	// An unwritable SARIF path is a hard error, not a silent skip.
	if code := run([]string{"-C", filepath.Join("testdata", "badmod"), "-sarif", filepath.Join("no-such-dir", "x.sarif")}, &out, &errs); code != 2 {
		t.Errorf("bad sarif path: exit = %d, want 2", code)
	}
}
