package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// GoroutineLife requires every go statement in the live stack to be tied to
// a provable shutdown path, so that Close/Stop on a runtime really means
// every goroutine it spawned has a way out. A goroutine with no exit signal
// outlives its owner: it leaks across test runs, holds connections open past
// shutdown, and turns clean restarts into races. Rule ids:
//
//   - goroutinelife.leak: a goroutine body with no shutdown evidence — no
//     deferred WaitGroup Done, no receive from a done/stop/quit channel or
//     ctx.Done(), and no deferred close of a completion channel.
//   - goroutinelife.opaque: the go statement's target cannot be resolved to
//     a function body in the same package, so nothing can be proven.
//
// Evidence is searched in the goroutine's own body (function literal, or a
// same-package function/method resolved through type information); nested
// function literals run on their own goroutines and do not count for the
// outer one. The check is intentionally shallow — a provable shutdown path
// must be visible in the goroutine body itself, which in this repo it always
// is: defer wg.Done() first, or a select on the owner's done channel.
type GoroutineLife struct{}

// NewGoroutineLife returns the goroutinelife analyzer.
func NewGoroutineLife() *GoroutineLife { return &GoroutineLife{} }

// Name implements Analyzer.
func (*GoroutineLife) Name() string { return "goroutinelife" }

// Rules implements Analyzer.
func (*GoroutineLife) Rules() []Rule {
	return []Rule{
		{ID: "goroutinelife.leak", Doc: "go statement with no provable shutdown path (WaitGroup Done, done-channel receive, or context cancellation)"},
		{ID: "goroutinelife.opaque", Doc: "go statement whose target body cannot be resolved in this package"},
	}
}

// Check implements Analyzer.
func (g *GoroutineLife) Check(pkg *Package) []Finding {
	bodies := make(map[types.Object]*ast.BlockStmt)
	for _, file := range pkg.Files {
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				bodies[pkg.Info.Defs[fd.Name]] = fd.Body
			}
		}
	}

	var out []Finding
	report := func(pos token.Pos, rule, msg string) {
		out = append(out, Finding{Pos: pkg.Fset.Position(pos), Rule: rule, Msg: msg})
	}
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			target := types.ExprString(gs.Call.Fun)
			body := goTargetBody(pkg, bodies, gs.Call)
			switch {
			case body == nil:
				report(gs.Pos(), "goroutinelife.opaque",
					"go "+target+": target body is outside this package; prove its shutdown path or carry an allow directive")
			case !hasShutdownEvidence(body):
				report(gs.Pos(), "goroutinelife.leak",
					"go "+target+": no shutdown path in the goroutine body (want a deferred WaitGroup Done, a done-channel receive, or ctx.Done())")
			}
			return true
		})
	}
	return out
}

// goTargetBody resolves the body a go statement will run: a function
// literal's own body, or the declaration of a same-package function or
// method. It is nil when the target is declared elsewhere (another package,
// an interface method) or is a function value.
func goTargetBody(pkg *Package, bodies map[types.Object]*ast.BlockStmt, call *ast.CallExpr) *ast.BlockStmt {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		return fun.Body
	case *ast.Ident:
		return bodies[pkg.Info.Uses[fun]]
	case *ast.SelectorExpr:
		return bodies[pkg.Info.Uses[fun.Sel]]
	}
	return nil
}

// hasShutdownEvidence reports whether a goroutine body contains a visible
// tie to a shutdown path. Nested function literals are skipped: they run on
// their own goroutines (or later), so their evidence does not terminate this
// one.
func hasShutdownEvidence(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			// defer wg.Done() — WaitGroup pairing; defer close(done) — the
			// goroutine itself is the completion signal.
			if sel, ok := ast.Unparen(n.Call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
				found = true
			}
			if id, ok := ast.Unparen(n.Call.Fun).(*ast.Ident); ok && id.Name == "close" && len(n.Call.Args) == 1 {
				if doneish(types.ExprString(n.Call.Args[0])) {
					found = true
				}
			}
		case *ast.UnaryExpr:
			// <-rt.done, <-ctx.Done(), <-stop: covers select cases too,
			// since a CommClause's receive is this same expression shape.
			if n.Op == token.ARROW && doneish(types.ExprString(n.X)) {
				found = true
			}
		case *ast.RangeStmt:
			// range over a done-ish or owner-closed channel drains until
			// close; treated as shutdown-tied when the name says so.
			if doneish(types.ExprString(n.X)) {
				found = true
			}
		}
		return !found
	})
	return found
}

// doneish reports whether a channel expression's printed form names a
// shutdown signal.
func doneish(expr string) bool {
	e := strings.ToLower(expr)
	for _, marker := range []string{"done", "stop", "quit", "halt", "shutdown", "closing", "cancel"} {
		if strings.Contains(e, marker) {
			return true
		}
	}
	return false
}
