package lint

import (
	"go/ast"
	"go/types"
)

// pkgOfSelector resolves a selector like time.Now to the import path of its
// package qualifier, or "" when the base is not a package name (a variable
// or type that shadows one included).
func pkgOfSelector(pkg *Package, sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := pkg.Info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// callee returns the function or method that call invokes by name, or nil
// for a builtin, a conversion or a call of a function value.
func callee(pkg *Package, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pkg.Info.Uses[id].(*types.Func)
	return fn
}

// isTypeConversion reports whether call is a type conversion rather than a
// function call.
func isTypeConversion(pkg *Package, call *ast.CallExpr) bool {
	return pkg.Info.Types[ast.Unparen(call.Fun)].IsType()
}

// builtinName returns the name of the builtin being called ("append",
// "len", ...) or "" for anything else.
func builtinName(pkg *Package, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := pkg.Info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}
