package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strconv"
)

// PrngFlow enforces that all randomness in simulation code flows through
// internal/prng, seeded only from deterministic inputs. Rule ids:
//
//   - prngflow.import: imports of math/rand, math/rand/v2, or crypto/rand.
//     math/rand's stream is not stable across Go releases and crypto/rand
//     is real entropy; both break replay-from-seed.
//   - prngflow.seed: a prng.New or Source.Reset call whose seed expression
//     involves a function call that is neither a type conversion nor a
//     call into the blessed package itself (prng.MixSeed, draws from a
//     prng.Source).
//     Seeds must derive from parameters, constants, sanctioned mixing, and
//     prior deterministic draws — never from clocks, counters, or ambient
//     state. Arguments of sanctioned calls stay under audit, so entropy
//     cannot hide inside a MixSeed argument.
type PrngFlow struct{}

// prngPath is the import path of the blessed generator package.
const prngPath = "kset/internal/prng"

// NewPrngFlow returns the prngflow analyzer.
func NewPrngFlow() *PrngFlow { return &PrngFlow{} }

// Name implements Analyzer.
func (*PrngFlow) Name() string { return "prngflow" }

// Rules implements Analyzer.
func (*PrngFlow) Rules() []Rule {
	return []Rule{
		{ID: "prngflow.import", Doc: "randomness imported from outside internal/prng"},
		{ID: "prngflow.seed", Doc: "prng seed derived from a nondeterministic source"},
	}
}

// forbiddenEntropy maps forbidden entropy imports to the reason shown.
var forbiddenEntropy = map[string]string{
	"math/rand":    "stream is not stable across Go releases",
	"math/rand/v2": "stream is outside the seed contract",
	"crypto/rand":  "real entropy is unreproducible by construction",
}

// Check implements Analyzer. The generator package itself is the one place
// entropy is defined; it stays out of the audit via the scope list, not
// here, so fixtures can play both roles.
func (*PrngFlow) Check(pkg *Package) []Finding {
	var out []Finding
	for _, file := range pkg.Files {
		for _, imp := range file.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if why, bad := forbiddenEntropy[path]; bad {
				out = append(out, Finding{
					Pos:  pkg.Fset.Position(imp.Pos()),
					Rule: "prngflow.import",
					Msg:  fmt.Sprintf("import of %q: %s; use kset/internal/prng", path, why),
				})
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || !isPrngSeeding(pkg, call) || len(call.Args) != 1 {
				return true
			}
			if bad := badSeedCall(pkg, call.Args[0]); bad != nil {
				out = append(out, Finding{
					Pos:  pkg.Fset.Position(bad.Pos()),
					Rule: "prngflow.seed",
					Msg: fmt.Sprintf("prng.%s seed calls %s: seeds must be parameters, constants, or prng draws",
						callee(pkg, call).Name(), types.ExprString(bad.Fun)),
				})
			}
			return true
		})
	}
	return out
}

// isPrngSeeding reports whether call seeds a generator of the blessed
// package: its New, qualified (prng.New(...)) or direct (the fixture is the
// package itself), or the Reset method that reseeds a Source in place.
func isPrngSeeding(pkg *Package, call *ast.CallExpr) bool {
	fn := callee(pkg, call)
	if !inPrng(fn) {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv() != nil
	return fn.Name() == "New" && !recv || fn.Name() == "Reset" && recv
}

// badSeedCall returns the first call inside the seed expression that is not
// a type conversion and not a call into the blessed package (a function
// like MixSeed, or a method on a prng.Source), or nil if the seed is clean.
// Sanctioned calls do not stop the walk: their arguments are audited too.
// The package is the audited definition of determinism, so calls into it
// are clean seed components.
func badSeedCall(pkg *Package, seed ast.Expr) *ast.CallExpr {
	var bad *ast.CallExpr
	ast.Inspect(seed, func(n ast.Node) bool {
		if bad != nil {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || isTypeConversion(pkg, call) || inPrng(callee(pkg, call)) {
			return true
		}
		bad = call
		return false
	})
	return bad
}

// inPrng reports whether fn is a function or method declared in the blessed
// package.
func inPrng(fn *types.Func) bool {
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == prngPath
}
