package lint

import (
	"fmt"
	"go/ast"
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
// The blessed idiom is "collect keys, sort, then act" — the collection loop
// carries an allow directive pointing at the sort, and everything effectful
// happens in the deterministic second loop.
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
		ast.Inspect(file, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
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
