package lint

import (
	"go/ast"
	"go/types"

	"congestmst/internal/lint/analysis"
)

// Noclock forbids wall-clock reads and unseeded randomness in the
// deterministic packages: time.Now and time.Since leak the host's
// clock into engine state, and the global math/rand source (seeded
// from runtime entropy since Go 1.20) makes two runs of the "same"
// algorithm diverge. Explicitly-seeded generators are fine —
// rand.New(rand.NewSource(seed)) is how the graph generators stay
// reproducible — so the constructors are exempt; only the implicit
// global-source entry points and the clock reads are flagged.
//
// Legitimate sampling sites (per-round wall-clock for the Observer,
// socket deadlines in the transport) carry //lint:allow noclock
// directives; the engines already keep those reads off the
// statistics-bearing paths.
var Noclock = &analysis.Analyzer{
	Name: "noclock",
	Doc:  "forbids time.Now/time.Since and unseeded math/rand in deterministic packages",
	Run:  runNoclock,
}

// randConstructors are the math/rand and math/rand/v2 entry points
// that build explicitly-seeded generators rather than drawing from
// the global source.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

func runNoclock(pass *analysis.Pass) error {
	allow := buildAllowlist(pass)
	// Match every use of a banned function — call sites and bare
	// references alike (`f := time.Now` smuggles the clock just as
	// well as `time.Now()`).
	inspectWithStack(pass, func(n ast.Node, stack []ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		// For qualified uses the selector's Sel carries the object;
		// skip the package-name ident itself.
		if len(stack) > 0 {
			if sel, isSel := stack[len(stack)-1].(*ast.SelectorExpr); isSel && sel.X == ast.Expr(id) {
				return true
			}
		}
		fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		path, name := fn.Pkg().Path(), fn.Name()
		var msg string
		switch {
		case path == "time" && (name == "Now" || name == "Since"):
			msg = "wall-clock read time." + name + " in a deterministic package"
		case (path == "math/rand" || path == "math/rand/v2") && !randConstructors[name] && isPackageLevel(fn):
			msg = "unseeded randomness " + path + "." + name + " in a deterministic package; use rand.New(rand.NewSource(seed))"
		default:
			return true
		}
		if allow.allowed(pass.Fset, id.Pos(), pass.Analyzer.Name) {
			return true
		}
		pass.Reportf(id.Pos(), "%s (or //lint:allow noclock <why>)", msg)
		return true
	})
	return nil
}

// isPackageLevel distinguishes math/rand's global-source entry points
// (rand.Intn) from methods on explicitly-seeded generators
// ((*rand.Rand).Intn), which share names: only the former is declared
// in its package's scope.
func isPackageLevel(fn *types.Func) bool {
	return fn.Pkg().Scope().Lookup(fn.Name()) == fn
}
