package lint

import (
	"bufio"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// loadFixture parses and type-checks one or more fixture files as a single
// package with the given import path. Standard-library imports resolve from
// toolchain source; a type error or any other import fails the test, as it
// fails Load.
func loadFixture(t *testing.T, importPath string, files ...string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	pkg, err := parseFiles(fset, importPath, files)
	if err != nil {
		t.Fatal(err)
	}
	if err := newChecker(fset, map[string]*Package{importPath: pkg}).check(pkg); err != nil {
		t.Fatal(err)
	}
	return pkg
}

func parseFiles(fset *token.FileSet, importPath string, files []string) (*Package, error) {
	pkg := &Package{Path: importPath, Fset: fset}
	for _, f := range files {
		parsed, err := parseOne(fset, f)
		if err != nil {
			return nil, err
		}
		pkg.Files = append(pkg.Files, parsed)
	}
	return pkg, nil
}

// wantComments collects the `// want rule1 rule2` expectations per
// file:line from the fixture sources.
func wantComments(t *testing.T, files ...string) map[string][]string {
	t.Helper()
	want := make(map[string][]string)
	for _, file := range files {
		fh, err := os.Open(file)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(fh)
		for line := 1; sc.Scan(); line++ {
			// `// want r1 r2` expects findings on its own line;
			// `// want-above r1` expects them one line up (for lines that
			// cannot carry a second comment, like directives under test).
			if _, marker, ok := strings.Cut(sc.Text(), "// want-above "); ok {
				key := keyAt(file, line-1)
				want[key] = append(want[key], strings.Fields(marker)...)
				continue
			}
			if _, marker, ok := strings.Cut(sc.Text(), "// want "); ok {
				key := keyAt(file, line)
				want[key] = append(want[key], strings.Fields(marker)...)
			}
		}
		fh.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

func keyAt(file string, line int) string {
	return filepath.Base(file) + ":" + itoa(line)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// checkFixture runs one analyzer over the fixture files, applies allow
// directives the same way Run does, and compares the surviving findings
// against the // want comments line by line.
func checkFixture(t *testing.T, a Analyzer, importPath string, files ...string) {
	t.Helper()
	for i, f := range files {
		files[i] = filepath.Join("testdata", a.Name(), f)
	}
	pkg := loadFixture(t, importPath, files...)
	allows := collectAllows(pkg)

	got := make(map[string][]string)
	for _, f := range a.Check(pkg) {
		if allows.suppresses(f) {
			continue
		}
		key := keyAt(f.Pos.Filename, f.Pos.Line)
		got[key] = append(got[key], f.Rule)
		t.Logf("finding: %s", f)
	}
	for _, f := range allows.malformed {
		key := keyAt(f.Pos.Filename, f.Pos.Line)
		got[key] = append(got[key], f.Rule)
	}
	for _, f := range allows.unused() {
		key := keyAt(f.Pos.Filename, f.Pos.Line)
		got[key] = append(got[key], f.Rule)
	}

	want := wantComments(t, files...)
	for key, rules := range want {
		if !sameRules(got[key], rules) {
			t.Errorf("%s: got findings %v, want %v", key, got[key], rules)
		}
	}
	for key, rules := range got {
		if _, expected := want[key]; !expected {
			t.Errorf("%s: unexpected findings %v", key, rules)
		}
	}
}

func sameRules(got, want []string) bool {
	g, w := slices.Clone(got), slices.Clone(want)
	slices.Sort(g)
	slices.Sort(w)
	return slices.Equal(g, w)
}

func TestDeterminism(t *testing.T) {
	checkFixture(t, NewDeterminism(), "kset/internal/fixture",
		"bad.go", "allowed.go")
}

func TestMapOrder(t *testing.T) {
	checkFixture(t, NewMapOrder(), "kset/internal/fixture", "fixture.go")
}

// TestPrngFlow loads its fixture as kset/internal/prng itself, so the
// fixture's New, MixSeed and Source are the blessed generator's.
func TestPrngFlow(t *testing.T) {
	checkFixture(t, NewPrngFlow(), "kset/internal/prng", "fixture.go")
}

func TestLockDiscipline(t *testing.T) {
	checkFixture(t, NewLockDiscipline(), "kset/internal/fixture", "fixture.go")
}

func TestErrFlow(t *testing.T) {
	checkFixture(t, NewErrFlow(), "kset/internal/fixture", "fixture.go")
}

func TestGoroutineLife(t *testing.T) {
	checkFixture(t, NewGoroutineLife(), "kset/internal/fixture", "fixture.go")
}

func TestLockHeldIO(t *testing.T) {
	checkFixture(t, NewLockHeldIO(), "kset/internal/fixture", "fixture.go")
}

// TestRulesMetadata pins the contract -list and the SARIF emitter rely on:
// every analyzer in the default suite declares at least one rule, every rule
// id starts with the analyzer's name, and the one analyzer a package may opt
// out of is in the suite.
func TestRulesMetadata(t *testing.T) {
	names := make(map[string]bool)
	for _, a := range DefaultAnalyzers() {
		names[a.Name()] = true
		rules := a.Rules()
		if len(rules) == 0 {
			t.Errorf("%s: no rules declared", a.Name())
		}
		for _, r := range rules {
			if !strings.HasPrefix(r.ID, a.Name()+".") {
				t.Errorf("%s: rule id %q does not extend the analyzer name", a.Name(), r.ID)
			}
			if r.Doc == "" {
				t.Errorf("%s: rule %q has no description", a.Name(), r.ID)
			}
		}
	}
	if !names[liveAnalyzer] {
		t.Errorf("package-allow names %q, which is not in the suite", liveAnalyzer)
	}
}

// TestPackageAllow: a package-allow determinism waives the analyzer in every
// file of its package. One that waives nothing is stale; one that names a
// rule id or another analyzer, or gives no reason, is malformed and waives
// nothing. All three are lint.allow findings.
func TestPackageAllow(t *testing.T) {
	checkFixture(t, NewDeterminism(), "kset/internal/live", "live.go", "live_spawn.go")
	checkFixture(t, NewDeterminism(), "kset/internal/stale", "stale.go")
	checkFixture(t, NewDeterminism(), "kset/internal/misnamed", "misnamed.go")
}

// TestTreeCoverage pins what ksetlint audits in this module: Run applies
// every analyzer to every loaded package, and only these packages opt out
// of determinism. A new package is audited by all seven analyzers.
func TestTreeCoverage(t *testing.T) {
	pkgs, err := Load(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	live := []string{
		"kset/cmd/ksetctl",
		"kset/cmd/ksetd",
		"kset/internal/acs",
		"kset/internal/cluster",
		"kset/internal/obs",
		"kset/internal/sweep",
	}
	for _, a := range DefaultAnalyzers() {
		var want []string
		if a.Name() == liveAnalyzer {
			want = live
		}
		if got := Exempt(pkgs, a.Name()); !slices.Equal(got, want) {
			t.Errorf("%s: packages opting out = %v, want %v", a.Name(), got, want)
		}
	}
	var paths []string
	for _, pkg := range pkgs {
		paths = append(paths, pkg.Path)
	}
	for _, p := range append(live, "kset", "kset/cmd/ksetsweep", "kset/cmd/ksetverify", "kset/internal/lint") {
		if !slices.Contains(paths, p) {
			t.Errorf("package %s not loaded; loaded %v", p, paths)
		}
	}
	if len(DefaultAnalyzers()) != 7 {
		t.Errorf("suite has %d analyzers, want 7", len(DefaultAnalyzers()))
	}
}
