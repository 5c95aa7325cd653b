// Package lint implements ksetlint, the repo-specific static-analysis pass
// that enforces the reproduction's determinism and concurrency contracts.
//
// Every empirical claim in this repository rests on the invariant stated in
// internal/prng: a run is a pure function of (protocol, parameters,
// adversary, seed). Run applies every analyzer to every package:
//
//   - determinism: no wall clock, goroutine, channel or sync primitive.
//   - maporder: no effectful range over a map, whose order is randomized.
//   - prngflow: all randomness through internal/prng, seeded from
//     parameters, constants or other draws.
//   - lockdiscipline: every mutex released on every return path, and none
//     held across a blocking channel operation.
//   - errflow: errors from IO-bearing calls checked, or discarded with `_ =`.
//   - goroutinelife: every go statement tied to a provable shutdown path.
//   - lockheldio: no blocking IO call while a mutex is held.
//
// A package that is concurrent and on real clocks by nature (the cluster
// runtime, ACS on it, obs, the sweep pool, the daemon and its client)
// declares itself live, and so exempt from determinism alone, with
//
//	//ksetlint:package-allow determinism <reason>
//
// Any other exception is waived where it fires, with
// //ksetlint:allow <rule> <reason> on or just above the line, or
// //ksetlint:file-allow <rule> <reason> for a whole file. A directive must
// carry a reason, and one that suppresses nothing is itself reported. The
// wire decoder's bounds on peer-supplied lengths are not a rule here:
// internal/wire's TestDecodeAllocBound holds them by behaviour. See
// docs/lint.md for the full contract.
package lint

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"slices"
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

// Run loads the module rooted at dir and applies every analyzer to every
// package, honoring allow directives. The returned findings are sorted by
// position. Findings include misuse of the directive syntax itself (rule
// "lint.allow", e.g. a reasonless or unused directive).
func Run(dir string, analyzers []Analyzer) ([]Finding, error) {
	pkgs, err := Load(dir)
	if err != nil {
		return nil, err
	}
	var all []Finding
	for _, pkg := range pkgs {
		allows := collectAllows(pkg)
		all = append(all, allows.malformed...)
		for _, a := range analyzers {
			for _, f := range a.Check(pkg) {
				if !allows.suppresses(f) {
					all = append(all, f)
				}
			}
		}
		all = append(all, allows.unused()...)
	}
	slices.SortStableFunc(all, func(a, b Finding) int {
		return cmp.Or(strings.Compare(a.Pos.Filename, b.Pos.Filename),
			cmp.Compare(a.Pos.Line, b.Pos.Line), cmp.Compare(a.Pos.Column, b.Pos.Column))
	})
	return all, nil
}

// Exempt returns the import paths of the packages in pkgs that opt out of
// the named analyzer with a package-allow directive, in load order. Only
// determinism can be opted out of, so for any other analyzer it is empty.
func Exempt(pkgs []*Package, analyzer string) []string {
	var out []string
	for _, pkg := range pkgs {
		if slices.ContainsFunc(collectAllows(pkg).directives, func(d *allowDirective) bool {
			return d.scope == packageScope && d.rule == analyzer
		}) {
			out = append(out, pkg.Path)
		}
	}
	return out
}

// directiveScope is how far one allow directive reaches.
type directiveScope int

const (
	lineScope    directiveScope = iota // its own line and the line below
	fileScope                          // the file it is in
	packageScope                       // every file of its package
)

// directiveKinds are the three directive spellings, narrowest first.
var directiveKinds = []struct {
	prefix string
	scope  directiveScope
}{
	{"//ksetlint:allow", lineScope},
	{"//ksetlint:file-allow", fileScope},
	{"//ksetlint:package-allow", packageScope},
}

// liveAnalyzer is the one analyzer a package-allow may name: a package
// declares itself live (concurrent, on real clocks) as a whole, and every
// other rule is waived where it fires.
const liveAnalyzer = "determinism"

// allowDirective is one parsed allow, file-allow or package-allow.
type allowDirective struct {
	pos     token.Position
	endLine int    // the line the comment ends on
	rule    string // rule id or bare analyzer name
	scope   directiveScope
	used    bool
}

// waives reports whether the directive reaches f and names its rule, either
// exactly or as the whole analyzer (the segment before the first dot).
func (d *allowDirective) waives(f Finding) bool {
	analyzer, _, _ := strings.Cut(f.Rule, ".")
	if d.rule != f.Rule && d.rule != analyzer {
		return false
	}
	switch d.scope {
	case lineScope:
		return d.pos.Filename == f.Pos.Filename && (f.Pos.Line == d.endLine || f.Pos.Line == d.endLine+1)
	case fileScope:
		return d.pos.Filename == f.Pos.Filename
	}
	return true
}

type allowSet struct {
	directives []*allowDirective // in source order
	malformed  []Finding
}

// collectAllows parses every ksetlint directive in pkg. A line-level
// directive suppresses findings on its own line or the line directly below
// it (so it can ride at end-of-line or as a lead comment).
func collectAllows(pkg *Package) *allowSet {
	s := &allowSet{}
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
	for _, kind := range directiveKinds {
		rest, ok := strings.CutPrefix(text, kind.prefix)
		if !ok {
			continue
		}
		pos := pkg.Fset.Position(c.Pos())
		fields := strings.Fields(rest)
		switch {
		case len(fields) < 2:
			s.malformed = append(s.malformed, Finding{
				Pos:  pos,
				Rule: "lint.allow",
				Msg:  "allow directive needs a rule and a reason: " + kind.prefix + " <rule> <reason>",
			})
		case kind.scope == packageScope && fields[0] != liveAnalyzer:
			s.malformed = append(s.malformed, Finding{
				Pos:  pos,
				Rule: "lint.allow",
				Msg:  "package-allow names only " + liveAnalyzer + " (a live package); waive " + strconv.Quote(fields[0]) + " where it fires",
			})
		default:
			s.directives = append(s.directives, &allowDirective{
				pos: pos, endLine: pkg.Fset.Position(c.End()).Line, rule: fields[0], scope: kind.scope,
			})
		}
		return
	}
}

// suppresses consumes the narrowest directive that waives f, if any.
func (s *allowSet) suppresses(f Finding) bool {
	var best *allowDirective
	for _, d := range s.directives {
		if d.waives(f) && (best == nil || d.scope < best.scope) {
			best = d
		}
	}
	if best == nil {
		return false
	}
	best.used = true
	return true
}

// unused reports, in source order, the directives that suppressed nothing:
// stale waivers must be deleted, not accumulated.
func (s *allowSet) unused() []Finding {
	var out []Finding
	for _, d := range s.directives {
		if !d.used {
			out = append(out, Finding{
				Pos:  d.pos,
				Rule: "lint.allow",
				Msg:  "allow directive for " + strconv.Quote(d.rule) + " suppresses nothing; delete it",
			})
		}
	}
	return out
}
