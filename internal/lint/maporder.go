package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// MapOrder flags `range` over a map when the loop body has effects, because
// Go randomizes map iteration order: any effectful body makes the trace (or
// worse, the decisions) depend on that hidden coin flip instead of the
// seed. Rule id: maporder.range.
//
// A body is effect-free when it only reads, accumulates into plain local
// variables (count++, max = v — order-insensitive folds), or branches.
// Effects are: function and method calls, append and other mutating
// builtins, writes through an index or selector (shared state), channel
// sends, goroutine launches, and returns (which value escapes depends on
// which key came first).
//
// The blessed idiom is "collect keys, sort, then act", and the analyzer
// knows it: a loop whose body is only `keys = append(keys, k)`, appending
// the range key to a local slice, is order-free when the very next
// statement is sort.Strings(keys), sort.Ints(keys) or slices.Sort(keys).
// Everything effectful then happens in the deterministic second loop.
type MapOrder struct{}

// NewMapOrder returns the maporder analyzer.
func NewMapOrder() *MapOrder { return &MapOrder{} }

// Name implements Analyzer.
func (*MapOrder) Name() string { return "maporder" }

// Rules implements Analyzer.
func (*MapOrder) Rules() []Rule {
	return []Rule{
		{ID: "maporder.range", Doc: "map iteration with side effects leaks nondeterministic order"},
	}
}

// Check implements Analyzer.
func (*MapOrder) Check(pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		// A statement list is visited before the statements in it, so a
		// collection loop is marked before the walk reaches it.
		sorted := make(map[*ast.RangeStmt]bool)
		ast.Inspect(file, func(n ast.Node) bool {
			list := stmtList(n)
			for i := 0; i+1 < len(list); i++ {
				if rng, ok := list[i].(*ast.RangeStmt); ok && collectsSortedKeys(pkg, rng, list[i+1]) {
					sorted[rng] = true
				}
			}
			rng, ok := n.(*ast.RangeStmt)
			if !ok || sorted[rng] {
				return true
			}
			if _, isMap := pkg.Info.TypeOf(rng.X).Underlying().(*types.Map); !isMap {
				return true
			}
			if effect := firstEffect(pkg, rng.Body); effect != "" {
				out = append(out, Finding{
					Pos:  pkg.Fset.Position(rng.For),
					Rule: "maporder.range",
					Msg: fmt.Sprintf("range over map %s with effectful body (%s): iteration order is randomized; collect and sort keys first",
						types.ExprString(rng.X), effect),
				})
			}
			return true
		})
	}
	return out
}

// stmtList returns the statements n holds in sequence, if any.
func stmtList(n ast.Node) []ast.Stmt {
	switch n := n.(type) {
	case *ast.BlockStmt:
		return n.List
	case *ast.CaseClause:
		return n.Body
	case *ast.CommClause:
		return n.Body
	}
	return nil
}

// keySorts are the stdlib sorts that close the collect-then-sort idiom.
var keySorts = map[string]bool{"sort.Strings": true, "sort.Ints": true, "slices.Sort": true}

// collectsSortedKeys reports whether rng only appends its key to a local
// slice (`keys = append(keys, k)`) and next sorts that slice.
func collectsSortedKeys(pkg *Package, rng *ast.RangeStmt, next ast.Stmt) bool {
	key := objectOf(pkg, rng.Key)
	if key == nil || rng.Value != nil || len(rng.Body.List) != 1 {
		return false
	}
	as, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return false
	}
	slice, ok := objectOf(pkg, as.Lhs[0]).(*types.Var)
	if !ok || slice.IsField() || slice.Parent() == slice.Pkg().Scope() {
		return false
	}
	app, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok || builtinName(pkg, app) != "append" || len(app.Args) != 2 || app.Ellipsis.IsValid() ||
		objectOf(pkg, app.Args[0]) != slice || objectOf(pkg, app.Args[1]) != key {
		return false
	}
	var sortCall *ast.CallExpr
	if expr, ok := next.(*ast.ExprStmt); ok {
		sortCall, _ = expr.X.(*ast.CallExpr)
	}
	if sortCall == nil {
		return false
	}
	// Each of the three sorts takes exactly the one slice argument.
	fn := callee(pkg, sortCall)
	return fn != nil && keySorts[fn.FullName()] && objectOf(pkg, sortCall.Args[0]) == slice
}

// objectOf returns the object a (parenthesized) identifier denotes, or nil
// for any other expression and for the blank identifier.
func objectOf(pkg *Package, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	return pkg.Info.ObjectOf(id)
}

// firstEffect returns a description of the first effect in the loop body,
// or "" if the body is effect-free. Nested function literals are opaque
// values, not executed here, so their bodies are not scanned — but calling
// one is a call and therefore an effect.
func firstEffect(pkg *Package, body *ast.BlockStmt) string {
	effect := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if effect != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			effect = "channel send"
		case *ast.GoStmt:
			effect = "go statement"
		case *ast.DeferStmt:
			effect = "defer"
		case *ast.ReturnStmt:
			effect = "return inside loop"
		case *ast.CallExpr:
			switch builtinName(pkg, n) {
			case "len", "cap", "min", "max", "new", "make":
				return true // pure builtins
			case "":
				if isTypeConversion(pkg, n) {
					return true
				}
				effect = "call to " + types.ExprString(n.Fun)
			default:
				effect = builtinName(pkg, n) + " call"
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if _, plain := ast.Unparen(lhs).(*ast.Ident); !plain {
					effect = "write through " + types.ExprString(lhs)
					break
				}
			}
		case *ast.IncDecStmt:
			if _, plain := ast.Unparen(n.X).(*ast.Ident); !plain {
				effect = "write through " + types.ExprString(n.X)
			}
		}
		return effect == ""
	})
	return effect
}
