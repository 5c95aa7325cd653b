package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// ErrFlow audits the live stack for silently dropped errors on IO-bearing
// calls — the class of bug PR 5 found by hand when SetRead/WriteDeadline
// failures on dead connections went unnoticed and stalled links. An error
// return on a connection read/write, a deadline setter, Close, Flush, or an
// encode/decode call is a signal about the health of a peer link; dropping
// it on the floor converts a diagnosable fault into a silent hang. Rule id:
//
//   - errflow.unchecked: the result of an IO-bearing call is discarded by
//     using the call as a bare statement.
//
// The sanctioned way to discard an error deliberately is a visible blank
// assignment (`_ = c.Close()`), which documents the decision and is not
// flagged; `defer c.Close()` teardown is likewise permitted. Calls whose
// signature does not return an error are ignored, as are the infallible
// buffer writers (strings.Builder, bytes.Buffer).
type ErrFlow struct{}

// NewErrFlow returns the errflow analyzer.
func NewErrFlow() *ErrFlow { return &ErrFlow{} }

// Name implements Analyzer.
func (*ErrFlow) Name() string { return "errflow" }

// Rules implements Analyzer.
func (*ErrFlow) Rules() []Rule {
	return []Rule{
		{ID: "errflow.unchecked", Doc: "error from an IO-bearing call is silently dropped"},
	}
}

// ioCallNames are the method and function names treated as IO-bearing when
// their signature returns an error.
var ioCallNames = map[string]bool{
	"Close": true, "Flush": true, "Sync": true,
	"SetDeadline": true, "SetReadDeadline": true, "SetWriteDeadline": true,
	"Read": true, "Write": true, "WriteString": true, "ReadFull": true,
	"WriteMsg": true, "ReadMsg": true, "Encode": true, "Decode": true,
	"Serve": true, "Shutdown": true, "ListenAndServe": true,
	"WritePrometheus": true,
}

// Check implements Analyzer.
func (*ErrFlow) Check(pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			stmt, ok := n.(*ast.ExprStmt)
			if !ok {
				return true
			}
			call, ok := ast.Unparen(stmt.X).(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if !ioCallNames[sel.Sel.Name] || isInfallibleBuffer(pkg, sel.X) ||
				!lastResultIsError(pkg.Info.TypeOf(call)) {
				return true
			}
			out = append(out, Finding{
				Pos:  pkg.Fset.Position(stmt.Pos()),
				Rule: "errflow.unchecked",
				Msg: fmt.Sprintf("error from %s() is dropped; check it or assign to _ to document the discard",
					types.ExprString(sel)),
			})
			return true
		})
	}
	return out
}

// lastResultIsError reports whether t — a call's result type, possibly a
// tuple — ends in the universe error type.
func lastResultIsError(t types.Type) bool {
	if tup, ok := t.(*types.Tuple); ok {
		if tup.Len() == 0 {
			return false
		}
		t = tup.At(tup.Len() - 1).Type()
	}
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// isInfallibleBuffer reports whether e is a strings.Builder or bytes.Buffer
// (possibly behind a pointer): their Write methods are documented to never
// return a non-nil error, so dropping it carries no signal.
func isInfallibleBuffer(pkg *Package, e ast.Expr) bool {
	t := pkg.Info.TypeOf(e)
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj() == nil || named.Obj().Pkg() == nil {
		return false
	}
	switch named.Obj().Pkg().Path() + "." + named.Obj().Name() {
	case "strings.Builder", "bytes.Buffer":
		return true
	}
	return false
}
