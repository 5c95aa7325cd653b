package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockDiscipline audits the genuinely concurrent runtimes for the two
// mutex mistakes that matter there: a lock that is not released on every
// return path, and a lock held across a blocking channel operation (send,
// receive, select without default, WaitGroup.Wait) — the classic recipe
// for a deadlock between a process goroutine and the coordinator. Rule ids:
//
//   - lockdiscipline.return: a return (or the end of the function) is
//     reachable with a mutex still held and no deferred unlock.
//   - lockdiscipline.double: a mutex locked again while already held.
//   - lockdiscipline.blocking: a potentially blocking channel operation
//     while a mutex is held.
//
// The analysis is a syntactic walk over each function body: locks are
// identified by receiver expression (rt.mu, m.delayMu, ...), Lock/RLock
// acquire, Unlock/RUnlock and defer-unlock release, and branches are
// explored with copies of the held set. It is intentionally conservative:
// critical sections in this repo are a few straight lines, and anything the
// analyzer cannot prove balanced deserves a rewrite or an allow directive.
type LockDiscipline struct{}

// NewLockDiscipline returns the lockdiscipline analyzer.
func NewLockDiscipline() *LockDiscipline { return &LockDiscipline{} }

// Name implements Analyzer.
func (*LockDiscipline) Name() string { return "lockdiscipline" }

// Rules implements Analyzer.
func (*LockDiscipline) Rules() []Rule {
	return []Rule{
		{ID: "lockdiscipline.return", Doc: "a return path leaves a mutex locked with no deferred unlock"},
		{ID: "lockdiscipline.double", Doc: "a mutex is locked again while already held"},
		{ID: "lockdiscipline.blocking", Doc: "a blocking channel operation or Wait while a mutex is held"},
	}
}

// Check implements Analyzer.
func (*LockDiscipline) Check(pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					w := &lockWalker{pkg: pkg}
					w.checkBody(fn.Body)
					out = append(out, w.findings...)
				}
				return true
			case *ast.FuncLit:
				// Visited through the enclosing declaration's Inspect; each
				// literal runs on its own goroutine boundary and is analyzed
				// as its own function by checkBody below.
				return true
			}
			return true
		})
	}
	return out
}

// lockState tracks one held mutex.
type lockState struct {
	pos      token.Pos // where it was locked
	deferred bool      // a defer releases it, so returns are fine
}

type heldSet map[string]*lockState

// names returns the held locks' keys, sorted.
func (h heldSet) names() []string {
	names := make([]string, 0, len(h))
	for k := range h {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func (h heldSet) clone() heldSet {
	c := make(heldSet, len(h))
	for _, k := range h.names() {
		cp := *h[k]
		c[k] = &cp
	}
	return c
}

// manual reports locks with no deferred release, the ones every return path
// must release explicitly.
func (h heldSet) manual() []string {
	var out []string
	for _, k := range h.names() {
		if !h[k].deferred {
			out = append(out, k)
		}
	}
	return out
}

type lockWalker struct {
	pkg      *Package
	findings []Finding
	// ioMode switches the walker from the lockdiscipline rules to the
	// lockheldio rule: the held-set simulation is identical, but only
	// blocking IO calls under a held lock are reported (and none of the
	// lockdiscipline.* findings, which remain that analyzer's job).
	ioMode bool
}

func (w *lockWalker) report(pos token.Pos, rule, msg string) {
	if w.ioMode != strings.HasPrefix(rule, "lockheldio.") {
		return
	}
	w.findings = append(w.findings, Finding{Pos: w.pkg.Fset.Position(pos), Rule: rule, Msg: msg})
}

// checkBody analyzes one function body from an empty held set, then
// recursively analyzes every function literal it contains (each on a fresh
// goroutine-independent state).
func (w *lockWalker) checkBody(body *ast.BlockStmt) {
	end := w.walkStmts(body.List, make(heldSet))
	if end != nil {
		for _, k := range end.manual() {
			w.report(end[k].pos, "lockdiscipline.return",
				fmt.Sprintf("%s.Lock() is not released when the function returns", lockRecv(k)))
		}
	}
	for _, stmt := range body.List {
		w.checkNestedFuncLits(stmt)
	}
}

func (w *lockWalker) checkNestedFuncLits(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			w.checkBody(lit.Body)
			return false
		}
		return true
	})
}

// walkStmts simulates a statement list. It returns the held set at
// fall-through, or nil when every path out of the list returned.
func (w *lockWalker) walkStmts(stmts []ast.Stmt, held heldSet) heldSet {
	for _, stmt := range stmts {
		held = w.walkStmt(stmt, held)
		if held == nil {
			return nil
		}
	}
	return held
}

func (w *lockWalker) walkStmt(stmt ast.Stmt, held heldSet) heldSet {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if recv, op, ok := lockCall(s.X); ok {
			return w.applyLockOp(held, recv, op, s.Pos())
		}
		w.checkBlocking(s, held)
	case *ast.DeferStmt:
		if recv, op, ok := lockCall(s.Call); ok && (op == "Unlock" || op == "RUnlock") {
			if st := held[lockKey(recv, op)]; st != nil {
				st.deferred = true
			}
		}
	case *ast.ReturnStmt:
		w.checkBlocking(s, held)
		for _, k := range held.manual() {
			w.report(s.Pos(), "lockdiscipline.return",
				fmt.Sprintf("return with %s still locked (locked at %s)",
					lockRecv(k), w.pkg.Fset.Position(held[k].pos)))
		}
		return nil
	case *ast.BranchStmt:
		// break/continue/goto: stop simulating this path; loop-level merge
		// keeps this conservative enough for the runtimes audited here.
		return nil
	case *ast.BlockStmt:
		return w.walkStmts(s.List, held)
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, held)
	case *ast.IfStmt:
		w.checkBlocking(s.Cond, held)
		then := w.walkStmts(s.Body.List, held.clone())
		var els heldSet
		if s.Else != nil {
			els = w.walkStmt(s.Else, held.clone())
		} else {
			els = held
		}
		return mergeHeld(then, els)
	case *ast.ForStmt:
		if s.Cond != nil {
			w.checkBlocking(s.Cond, held)
		}
		body := w.walkStmts(s.Body.List, held.clone())
		return mergeHeld(held, body)
	case *ast.RangeStmt:
		w.checkBlocking(s.X, held)
		if _, isChan := w.pkg.Info.TypeOf(s.X).Underlying().(*types.Chan); isChan && len(held) > 0 {
			w.reportBlocking(s.Pos(), "range over channel", held)
		}
		body := w.walkStmts(s.Body.List, held.clone())
		return mergeHeld(held, body)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		return w.walkCases(stmt, held)
	case *ast.SelectStmt:
		if len(held) > 0 && !selectHasDefault(s) {
			w.reportBlocking(s.Pos(), "select without default", held)
		}
		var merged heldSet
		terminated := true
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			end := w.walkStmts(cc.Body, held.clone())
			if end != nil {
				terminated = false
				merged = mergeHeld(merged, end)
			}
		}
		if terminated && len(s.Body.List) > 0 {
			return nil
		}
		return mergeHeld(merged, nil)
	default:
		w.checkBlocking(stmt, held)
	}
	return held
}

// walkCases handles switch/type-switch: each case body is one branch.
func (w *lockWalker) walkCases(stmt ast.Stmt, held heldSet) heldSet {
	var body *ast.BlockStmt
	hasDefault := false
	switch s := stmt.(type) {
	case *ast.SwitchStmt:
		if s.Tag != nil {
			w.checkBlocking(s.Tag, held)
		}
		body = s.Body
	case *ast.TypeSwitchStmt:
		body = s.Body
	}
	var merged heldSet
	sawFallthrough := false
	for _, c := range body.List {
		cc := c.(*ast.CaseClause)
		if cc.List == nil {
			hasDefault = true
		}
		end := w.walkStmts(cc.Body, held.clone())
		if end != nil {
			merged = mergeHeld(merged, end)
			sawFallthrough = true
		}
	}
	if !hasDefault {
		// No default: the switch can fall through unexecuted.
		return mergeHeld(merged, held)
	}
	if !sawFallthrough {
		return nil
	}
	return merged
}

// applyLockOp updates held for an explicit Lock/Unlock statement.
func (w *lockWalker) applyLockOp(held heldSet, recv, op string, pos token.Pos) heldSet {
	key := lockKey(recv, op)
	switch op {
	case "Lock", "RLock":
		if _, already := held[key]; already {
			w.report(pos, "lockdiscipline.double",
				fmt.Sprintf("%s.%s() while already holding it", recv, op))
			return held
		}
		held[key] = &lockState{pos: pos}
	case "Unlock", "RUnlock":
		delete(held, key)
	}
	return held
}

// checkBlocking reports channel operations and Wait calls inside n while
// any mutex is held. Nested function literals are skipped: they execute
// later, on their own stack.
func (w *lockWalker) checkBlocking(n ast.Node, held heldSet) {
	if len(held) == 0 || n == nil {
		return
	}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				w.reportBlocking(n.Pos(), "select without default", held)
			}
			return true
		case *ast.SendStmt:
			w.reportBlocking(n.Arrow, "channel send", held)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.reportBlocking(n.OpPos, "channel receive", held)
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if sel.Sel.Name == "Wait" {
					w.reportBlocking(n.Pos(), types.ExprString(sel)+"()", held)
				}
				if w.ioMode && isBlockingIOCall(w.pkg, sel) {
					w.reportHeldIO(n.Pos(), types.ExprString(sel)+"()", held)
				}
			}
		}
		return true
	})
}

func (w *lockWalker) reportHeldIO(pos token.Pos, what string, held heldSet) {
	w.report(pos, "lockheldio.io",
		fmt.Sprintf("%s while holding %s: IO under a lock stalls every contender and can deadlock shutdown", what, lockRecv(held.names()[0])))
}

func (w *lockWalker) reportBlocking(pos token.Pos, what string, held heldSet) {
	w.report(pos, "lockdiscipline.blocking",
		fmt.Sprintf("%s while holding %s: blocking under a lock can deadlock the runtime", what, lockRecv(held.names()[0])))
}

// selectHasDefault reports whether a select statement has a default clause
// and therefore never blocks.
func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// mergeHeld joins two branch outcomes: nil means the branch returned. The
// union is conservative — a lock held on either surviving path is treated
// as held afterwards.
func mergeHeld(a, b heldSet) heldSet {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	out := a.clone()
	for _, k := range b.names() {
		v := b[k]
		if cur, ok := out[k]; ok {
			cur.deferred = cur.deferred && v.deferred
			continue
		}
		cp := *v
		out[k] = &cp
	}
	return out
}

// lockCall matches expressions of the form recv.Lock() / recv.RLock() /
// recv.Unlock() / recv.RUnlock() and returns the printed receiver and the
// operation name.
func lockCall(e ast.Expr) (recv, op string, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall || len(call.Args) != 0 {
		return "", "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
		return types.ExprString(sel.X), sel.Sel.Name, true
	}
	return "", "", false
}

// lockKey gives read and write holds of the same mutex distinct identities.
func lockKey(recv, op string) string {
	if op == "RLock" || op == "RUnlock" {
		return recv + "\x00r"
	}
	return recv
}

// lockRecv recovers the receiver expression from a lock key for messages.
func lockRecv(key string) string {
	recv, _, _ := strings.Cut(key, "\x00")
	return recv
}
