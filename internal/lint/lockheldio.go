package lint

import "go/ast"

// LockHeldIO is the path-sensitive extension of the lockdiscipline engine
// for the live stack: it reuses the same held-set simulation but flags
// blocking IO calls — dials, connection reads/writes, accepts, flushes,
// time.Sleep — made while any mutex is held. This is the deadlock/latency
// class behind the ack-flush bug PR 5 fixed by hand: a slow or dead peer on
// the other end of the write stalls every goroutine contending for the lock,
// and if shutdown needs that lock too, the process never exits. Rule id:
//
//   - lockheldio.io: a blocking IO call while a mutex is held.
//
// The fix is always the same shape the cluster transport already uses: grab
// what you need under the lock, release it, then do the IO. The infallible
// in-memory buffer writers (strings.Builder, bytes.Buffer) are exempt; a
// mutex whose entire purpose is serializing one write carries an allow
// directive saying so.
type LockHeldIO struct{}

// NewLockHeldIO returns the lockheldio analyzer.
func NewLockHeldIO() *LockHeldIO { return &LockHeldIO{} }

// Name implements Analyzer.
func (*LockHeldIO) Name() string { return "lockheldio" }

// Rules implements Analyzer.
func (*LockHeldIO) Rules() []Rule {
	return []Rule{
		{ID: "lockheldio.io", Doc: "blocking IO call (dial, conn read/write, accept, flush, sleep) while a mutex is held"},
	}
}

// Check implements Analyzer.
func (*LockHeldIO) Check(pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if fn, ok := n.(*ast.FuncDecl); ok && fn.Body != nil {
				w := &lockWalker{pkg: pkg, ioMode: true}
				w.checkBody(fn.Body)
				out = append(out, w.findings...)
			}
			return true
		})
	}
	return out
}

// blockingIONames are method names whose call can block on the network, the
// disk, or the clock. Matching is by name plus receiver-type exclusions —
// precise enough for this codebase, where these names are only ever IO.
var blockingIONames = map[string]bool{
	"Read": true, "Write": true, "WriteString": true, "WriteTo": true,
	"ReadFrom": true, "ReadFull": true, "Copy": true, "Flush": true,
	"ReadMsg": true, "WriteMsg": true,
	"Dial": true, "DialTimeout": true, "DialNode": true,
	"Accept": true, "Listen": true, "Serve": true,
	"Sleep": true,
}

// isBlockingIOCall reports whether sel names a blocking IO call: a method
// from the blocking name set on anything but an in-memory buffer, or a
// package function like time.Sleep, net.Dial, io.Copy.
func isBlockingIOCall(pkg *Package, sel *ast.SelectorExpr) bool {
	if !blockingIONames[sel.Sel.Name] {
		return false
	}
	if isInfallibleBuffer(pkg, sel.X) {
		return false
	}
	// A method call counts; of package-qualified calls only the IO-bearing
	// packages do, so a local helper package exporting a same-named pure
	// function stays quiet.
	switch pkgOfSelector(pkg, sel) {
	case "", "time", "net", "io", "os", "kset/internal/cluster", "kset/internal/wire":
		return true
	}
	return false
}
