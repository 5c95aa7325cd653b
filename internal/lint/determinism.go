package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// Determinism enforces the core simulation contract: a run may depend on
// nothing but (protocol, parameters, adversary, seed). It reports, with one
// rule id each:
//
//   - determinism.time: wall-clock reads and timer operations (time.Now,
//     time.Sleep, time.Since, timers, tickers). time.Duration values and
//     constants are fine — only observing or waiting on real time is not.
//   - determinism.goroutine: go statements. Concurrency hands scheduling to
//     the Go runtime, which is a nondeterministic adversary.
//   - determinism.chan: channel types and operations (send, receive,
//     select, close, range over a channel).
//   - determinism.sync: imports of sync and sync/atomic.
//
// A live package opts out with //ksetlint:package-allow determinism.
type Determinism struct{}

// NewDeterminism returns the determinism analyzer.
func NewDeterminism() *Determinism { return &Determinism{} }

// Name implements Analyzer.
func (*Determinism) Name() string { return "determinism" }

// Rules implements Analyzer.
func (*Determinism) Rules() []Rule {
	return []Rule{
		{ID: "determinism.time", Doc: "simulation code observes or waits on the wall clock"},
		{ID: "determinism.goroutine", Doc: "simulation code launches a goroutine"},
		{ID: "determinism.chan", Doc: "simulation code uses channel types or operations"},
		{ID: "determinism.sync", Doc: "simulation code imports sync or sync/atomic"},
	}
}

// timeFuncs are the time package functions that observe or wait on the wall
// clock. Pure constructors like time.Duration arithmetic are allowed.
var timeFuncs = map[string]bool{
	"Now": true, "Sleep": true, "Since": true, "Until": true,
	"After": true, "AfterFunc": true, "Tick": true,
	"NewTimer": true, "NewTicker": true,
}

// Check implements Analyzer.
func (*Determinism) Check(pkg *Package) []Finding {
	var out []Finding
	report := func(pos token.Pos, rule, msg string) {
		out = append(out, Finding{Pos: pkg.Fset.Position(pos), Rule: rule, Msg: msg})
	}
	for _, file := range pkg.Files {
		for _, imp := range file.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			switch path {
			case "sync", "sync/atomic":
				report(imp.Pos(), "determinism.sync",
					fmt.Sprintf("import of %q: sync primitives imply scheduling-dependent behavior in simulation code", path))
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				report(n.Pos(), "determinism.goroutine",
					"go statement: goroutine interleaving is not a function of the seed")
			case *ast.SendStmt:
				report(n.Arrow, "determinism.chan", "channel send in simulation code")
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					report(n.OpPos, "determinism.chan", "channel receive in simulation code")
				}
			case *ast.SelectStmt:
				report(n.Pos(), "determinism.chan", "select statement in simulation code")
			case *ast.ChanType:
				report(n.Pos(), "determinism.chan", "channel type in simulation code")
			case *ast.RangeStmt:
				if _, ok := pkg.Info.TypeOf(n.X).Underlying().(*types.Chan); ok {
					report(n.For, "determinism.chan", "range over channel in simulation code")
				}
			case *ast.CallExpr:
				if builtinName(pkg, n) == "close" {
					report(n.Pos(), "determinism.chan", "channel close in simulation code")
				}
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					if pkgOfSelector(pkg, sel) == "time" && timeFuncs[sel.Sel.Name] {
						report(n.Pos(), "determinism.time",
							fmt.Sprintf("time.%s: wall-clock dependence makes runs unreproducible", sel.Sel.Name))
					}
				}
			}
			return true
		})
	}
	return out
}
