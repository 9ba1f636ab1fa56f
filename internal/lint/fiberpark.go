package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"congestmst/internal/lint/analysis"
)

// Fiberpark proves the congest.Fiber contract statically: code that
// runs as a parked-and-resumed vertex program must never block. The
// congest.Context surface has no blocking method, so the compiler
// already rejects a program that tries to wait through it; a raw
// channel operation is the remaining way to park a goroutine, and the
// engines call fibers on their own workers, where a parked call stalls
// every vertex behind it.
//
// Root set: every function or method whose signature carries a
// congest.Context parameter and returns congest.Step or congest.Park
// — exactly the continuation shapes of the Step kit (task.go) and the
// Fiber interface's Start/Resume. From those roots it follows
// statically-resolvable same-package calls that pass a Context along,
// and inside everything reachable (nested closures included) it flags
// channel sends, receives and select statements.
var Fiberpark = &analysis.Analyzer{
	Name: "fiberpark",
	Doc:  "forbids channel operations reachable from fiber/step-form code",
	Run:  runFiberpark,
}

func runFiberpark(pass *analysis.Pass) error {
	allow := buildAllowlist(pass)

	// Index this package's function and method declarations by object,
	// so calls can be followed into their bodies.
	decls := map[*types.Func]*ast.FuncDecl{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				decls[obj] = fd
			}
		}
	}

	// Collect roots: step-form declarations and function literals.
	var worklist []ast.Node
	seen := map[ast.Node]bool{}
	enqueue := func(n ast.Node) {
		if n != nil && !seen[n] {
			seen[n] = true
			worklist = append(worklist, n)
		}
	}
	inspectWithStack(pass, func(n ast.Node, stack []ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if obj, ok := pass.TypesInfo.Defs[fn.Name].(*types.Func); ok && isStepForm(obj.Type()) {
				enqueue(fn.Body)
			}
		case *ast.FuncLit:
			// Literals nested in an enqueued body are covered by the
			// parent walk; top-level step-form literals (continuations
			// built outside any root) still need their own entry.
			if t := pass.TypeOf(fn); t != nil && isStepForm(t) {
				if !enclosedByRoot(stack, seen) {
					enqueue(fn.Body)
				}
			}
		}
		return true
	})

	visited := map[*types.Func]bool{}
	for len(worklist) > 0 {
		body := worklist[0]
		worklist = worklist[1:]
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				// Follow same-package callees that receive a Context.
				if callee := calleeFunc(pass.TypesInfo, n); callee != nil && !visited[callee] {
					if fd, ok := decls[callee]; ok && hasContextParam(callee.Type()) {
						visited[callee] = true
						enqueue(fd.Body)
					}
				}
			case *ast.SendStmt:
				if !allow.allowed(pass.Fset, n.Pos(), pass.Analyzer.Name) {
					pass.Reportf(n.Pos(), "channel send reachable from fiber/step-form code; fibers must not block")
				}
			case *ast.UnaryExpr:
				if n.Op == token.ARROW && !allow.allowed(pass.Fset, n.Pos(), pass.Analyzer.Name) {
					pass.Reportf(n.Pos(), "channel receive reachable from fiber/step-form code; fibers must not block")
				}
			case *ast.SelectStmt:
				if !allow.allowed(pass.Fset, n.Pos(), pass.Analyzer.Name) {
					pass.Reportf(n.Pos(), "select statement reachable from fiber/step-form code; fibers must not block")
				}
			}
			return true
		})
	}
	return nil
}

// enclosedByRoot reports whether some ancestor body is already queued,
// meaning this literal will be walked as part of it.
func enclosedByRoot(stack []ast.Node, seen map[ast.Node]bool) bool {
	for _, n := range stack {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if seen[ast.Node(fn.Body)] {
				return true
			}
		case *ast.FuncLit:
			if seen[ast.Node(fn.Body)] {
				return true
			}
		}
	}
	return false
}

// isStepForm reports whether t is a signature with a congest.Context
// parameter and a congest.Step or congest.Park result.
func isStepForm(t types.Type) bool {
	sig, ok := t.(*types.Signature)
	if !ok {
		return false
	}
	if !hasContextParam(sig) {
		return false
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if p, n := namedType(res.At(i).Type()); p == congestPath && (n == "Step" || n == "Park") {
			return true
		}
	}
	return false
}

func hasContextParam(t types.Type) bool {
	sig, ok := t.(*types.Signature)
	if !ok {
		return false
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isCongestContext(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// isCongestContext reports whether t is the congest.Context interface.
func isCongestContext(t types.Type) bool {
	p, n := namedType(t)
	return p == congestPath && n == "Context"
}

// calleeFunc resolves a call to its static callee, whether plain
// function or method. nil when unresolvable (interface calls through
// stored continuations, function-typed fields, builtins).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
		}
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}
