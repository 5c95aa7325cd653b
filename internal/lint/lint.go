// Package lint implements ksetlint, the repo-specific static-analysis pass
// that enforces the reproduction's determinism and concurrency contracts.
//
// Every empirical claim in this repository rests on the invariant stated in
// internal/prng: a run is a pure function of (protocol, parameters,
// adversary, seed). The analyzers in this package make that invariant
// machine-checked rather than aspirational:
//
//   - determinism: simulation packages must not read wall clocks, launch
//     goroutines, use channels, or reach for sync primitives.
//   - maporder: simulation packages must not range over maps when the loop
//     body has effects, because map iteration order would leak into traces.
//   - prngflow: all randomness must flow through internal/prng, and every
//     prng.New or Source.Reset seed must derive from parameters, constants,
//     or other deterministic draws.
//   - lockdiscipline: packages with real mutexes must release every mutex
//     on every return path and never hold one across a blocking channel
//     operation.
//
// The live stack (cluster transport, ACS, wire codec, obs and the binaries
// that talk to live nodes) is nondeterministic by nature, so it is held to
// a different contract — the crash-fault, reliable-network model the
// protocols assume must survive real IO:
//
//   - errflow: errors from IO-bearing calls (conn reads/writes, deadline
//     setters, Close, Flush, encode/decode) must be checked or explicitly
//     discarded with a blank assignment.
//   - goroutinelife: every go statement must be tied to a provable shutdown
//     path (WaitGroup Add/Done pairing, done-channel receive, or context
//     cancellation), so nothing leaks past Close.
//   - lockheldio: no blocking IO call (dial, conn write, time.Sleep) while
//     a mutex is held — the deadlock/latency class behind the ack-flush bug.
//
// The wire decoder's bounds on peer-supplied lengths are not a rule here:
// internal/wire's TestDecodeAllocBound holds them by behaviour.
//
// Legitimate exceptions are documented in the source with
//
//	//ksetlint:allow <rule> <reason>
//
// on (or immediately above) the offending line, or
//
//	//ksetlint:file-allow <rule> <reason>
//
// anywhere at the top level of a file to waive one rule for the whole file.
// A directive must carry a reason; a bare directive is itself reported.
// See docs/lint.md for the full contract.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Finding is one analyzer diagnostic at a source position.
type Finding struct {
	Pos  token.Position
	Rule string // dotted rule id, e.g. "determinism.time"
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, f.Msg)
}

// Analyzer checks one loaded package and reports findings. Implementations
// must be pure: same package in, same findings out.
type Analyzer interface {
	// Name returns the analyzer name, the first segment of its rule ids.
	Name() string
	// Rules enumerates every rule id the analyzer can emit, with one-line
	// descriptions for -list and the SARIF rule table.
	Rules() []Rule
	// Check analyzes pkg. Allow directives are applied by the caller, so
	// implementations report every hit unconditionally.
	Check(pkg *Package) []Finding
}

// Rule is the static description of one rule id an analyzer can emit.
type Rule struct {
	ID  string // dotted rule id, e.g. "errflow.unchecked"
	Doc string // one-line description
}

// AllowRule describes the directive-audit rule emitted by the engine itself
// (malformed or stale //ksetlint:allow directives).
func AllowRule() Rule {
	return Rule{
		ID:  "lint.allow",
		Doc: "a ksetlint allow directive is malformed (missing rule or reason) or suppresses nothing",
	}
}

// DefaultAnalyzers returns the full ksetlint suite.
func DefaultAnalyzers() []Analyzer {
	return []Analyzer{
		NewDeterminism(),
		NewMapOrder(),
		NewPrngFlow(),
		NewLockDiscipline(),
		NewErrFlow(),
		NewGoroutineLife(),
		NewLockHeldIO(),
	}
}

// DefaultScopes maps each analyzer to the import-path prefixes it audits.
// The determinism contract covers every package that executes or inspects
// simulated runs, plus the wire codec (pure computation by design); the lock
// discipline contract covers the cluster runtime and ACS on it, the grid
// sweep, the obs metrics registry (whose map is mutex-guarded), and smmem.
// The cluster runtime is
// inherently nondeterministic (real network, real clocks) so it stays out of
// the determinism scope, but its map iteration and randomness sourcing are
// held to the same standard as the simulators.
func DefaultScopes() map[string][]string {
	deterministic := []string{
		"kset/internal/protocols",
		"kset/internal/mpnet",
		"kset/internal/smmem",
		"kset/internal/adversary",
		"kset/internal/checker",
		"kset/internal/exhaustive",
		"kset/internal/theory",
		"kset/internal/harness",
		"kset/internal/report",
		"kset/internal/trace",
		"kset/internal/shrink",
		"kset/internal/wire",
		"kset/internal/grid",
	}
	simulatorsAndCluster := slices.Concat(deterministic, []string{
		"kset/internal/cluster",
		"kset/internal/acs",
	})
	return map[string][]string{
		"determinism": deterministic,
		"maporder":    simulatorsAndCluster,
		"prngflow":    simulatorsAndCluster,
		"lockdiscipline": {
			"kset/internal/smmem",
			"kset/internal/cluster",
			"kset/internal/acs",
			"kset/internal/obs",
			"kset/internal/grid",
		},
		"errflow":       liveStack,
		"goroutinelife": liveStack,
		"lockheldio":    liveStack,
	}
}

// liveStack is the scope of the concurrency-safety analyzers: every package
// that performs real IO or runs real goroutines in production paths — the
// cluster transport and ACS on it, the wire codec, observability, and the
// binaries that talk to live nodes.
var liveStack = []string{
	"kset/internal/cluster",
	"kset/internal/acs",
	"kset/internal/wire",
	"kset/internal/obs",
	"kset/cmd/ksetd",
	"kset/cmd/ksetctl",
	"kset/cmd/ksetsweep",
}

// InScope reports whether import path is covered by one of the prefixes.
// A prefix matches the exact package or any package below it.
func InScope(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// Run loads the module rooted at dir and applies every analyzer to the
// packages its scope selects, honoring allow directives. The returned
// findings are sorted by position. Findings include misuse of the directive
// syntax itself (rule "lint.allow", e.g. a reasonless or unused directive).
func Run(dir string, analyzers []Analyzer, scopes map[string][]string) ([]Finding, error) {
	pkgs, err := Load(dir)
	if err != nil {
		return nil, err
	}
	var all []Finding
	for _, pkg := range pkgs {
		allows := collectAllows(pkg)
		all = append(all, allows.malformed...)
		for _, a := range analyzers {
			scope, ok := scopes[a.Name()]
			if !ok {
				continue
			}
			if !InScope(pkg.Path, scope) {
				continue
			}
			for _, f := range a.Check(pkg) {
				if allows.suppresses(f) {
					continue
				}
				all = append(all, f)
			}
		}
		all = append(all, allows.unused()...)
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i].Pos, all[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return all, nil
}

// allowDirective is one parsed //ksetlint:allow or //ksetlint:file-allow.
type allowDirective struct {
	pos      token.Position
	rule     string // rule id or bare analyzer name
	fileWide bool
	used     bool
}

// matches reports whether the directive waives rule: either exactly, or the
// directive names the whole analyzer (the segment before the first dot).
func (d *allowDirective) matches(rule string) bool {
	if d.rule == rule {
		return true
	}
	analyzer, _, ok := strings.Cut(rule, ".")
	return ok && d.rule == analyzer
}

type allowSet struct {
	// byFileLine indexes line-level directives by filename then line.
	byFileLine map[string]map[int][]*allowDirective
	// fileWide indexes file-level directives by filename.
	fileWide  map[string][]*allowDirective
	malformed []Finding
}

const (
	allowPrefix     = "//ksetlint:allow"
	fileAllowPrefix = "//ksetlint:file-allow"
)

// collectAllows parses every ksetlint directive in pkg. A line-level
// directive suppresses findings on its own line or the line directly below
// it (so it can ride at end-of-line or as a lead comment).
func collectAllows(pkg *Package) *allowSet {
	s := &allowSet{
		byFileLine: make(map[string]map[int][]*allowDirective),
		fileWide:   make(map[string][]*allowDirective),
	}
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				s.add(pkg, c)
			}
		}
	}
	return s
}

func (s *allowSet) add(pkg *Package, c *ast.Comment) {
	text := strings.TrimSpace(c.Text)
	var rest string
	var fileWide bool
	switch {
	case strings.HasPrefix(text, fileAllowPrefix):
		rest, fileWide = text[len(fileAllowPrefix):], true
	case strings.HasPrefix(text, allowPrefix):
		rest = text[len(allowPrefix):]
	default:
		return
	}
	pos := pkg.Fset.Position(c.Pos())
	fields := strings.Fields(rest)
	if len(fields) < 2 {
		s.malformed = append(s.malformed, Finding{
			Pos:  pos,
			Rule: "lint.allow",
			Msg:  "allow directive needs a rule and a reason: //ksetlint:allow <rule> <reason>",
		})
		return
	}
	d := &allowDirective{pos: pos, rule: fields[0], fileWide: fileWide}
	if fileWide {
		s.fileWide[pos.Filename] = append(s.fileWide[pos.Filename], d)
		return
	}
	byLine := s.byFileLine[pos.Filename]
	if byLine == nil {
		byLine = make(map[int][]*allowDirective)
		s.byFileLine[pos.Filename] = byLine
	}
	end := pkg.Fset.Position(c.End()).Line
	byLine[end] = append(byLine[end], d)
}

// suppresses consumes the first directive that waives f, if any.
func (s *allowSet) suppresses(f Finding) bool {
	for _, line := range []int{f.Pos.Line, f.Pos.Line - 1} {
		for _, d := range s.byFileLine[f.Pos.Filename][line] {
			if d.matches(f.Rule) {
				d.used = true
				return true
			}
		}
	}
	for _, d := range s.fileWide[f.Pos.Filename] {
		if d.matches(f.Rule) {
			d.used = true
			return true
		}
	}
	return false
}

// unused reports directives that suppressed nothing: stale waivers must be
// deleted, not accumulated.
func (s *allowSet) unused() []Finding {
	var out []Finding
	report := func(d *allowDirective) {
		if d.used {
			return
		}
		out = append(out, Finding{
			Pos:  d.pos,
			Rule: "lint.allow",
			Msg:  "allow directive for " + strconv.Quote(d.rule) + " suppresses nothing; delete it",
		})
	}
	for _, byLine := range s.byFileLine {
		for _, ds := range byLine {
			for _, d := range ds {
				report(d)
			}
		}
	}
	for _, ds := range s.fileWide {
		for _, d := range ds {
			report(d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return out
}
