package lint

import (
	"go/ast"
	"go/types"

	"congestmst/internal/lint/analysis"
)

// inspectWithStack walks every file in the pass, invoking fn with each
// node and the stack of its ancestors (outermost first, not including
// n itself). Returning false prunes the subtree.
func inspectWithStack(pass *analysis.Pass, fn func(n ast.Node, stack []ast.Node) bool) {
	for _, f := range pass.Files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			descend := fn(n, stack)
			if descend {
				stack = append(stack, n)
			}
			return descend
		})
	}
}

// namedType reports the defining package path and name of t, looking
// through pointers. Both are "" for unnamed types.
func namedType(t types.Type) (pkgPath, name string) {
	if t == nil {
		return "", ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return "", obj.Name()
	}
	return obj.Pkg().Path(), obj.Name()
}

// isNamed reports whether t (or *t) is the named type path.name.
func isNamed(t types.Type, path, name string) bool {
	p, n := namedType(t)
	return p == path && n == name
}

// pkgFuncCall resolves call to a package-level function and returns
// its package path and name. ok is false for method calls, calls of
// locals, conversions and builtins.
func pkgFuncCall(info *types.Info, call *ast.CallExpr) (pkgPath, name string, ok bool) {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		// Only package-qualified selectors: time.Now, rand.Intn.
		base, isIdent := fun.X.(*ast.Ident)
		if !isIdent {
			return "", "", false
		}
		if _, isPkg := info.Uses[base].(*types.PkgName); !isPkg {
			return "", "", false
		}
		id = fun.Sel
	default:
		return "", "", false
	}
	// A bare identifier or a package-qualified selector never denotes
	// a method, so a *types.Func here is package-level.
	fn, isFunc := info.Uses[id].(*types.Func)
	if !isFunc || fn.Pkg() == nil {
		return "", "", false
	}
	return fn.Pkg().Path(), fn.Name(), true
}

// exprString renders an expression for diagnostics and for comparing
// guard operands against call receivers.
func exprString(e ast.Expr) string {
	return types.ExprString(e)
}

// methodCall resolves call to the invoked method, returning the method
// object and the receiver expression. ok is false for non-method calls.
func methodCall(info *types.Info, call *ast.CallExpr) (m *types.Func, recv ast.Expr, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return nil, nil, false
	}
	selection, hasSel := info.Selections[sel]
	if !hasSel || selection.Kind() != types.MethodVal {
		return nil, nil, false
	}
	fn, isFunc := selection.Obj().(*types.Func)
	if !isFunc {
		return nil, nil, false
	}
	return fn, sel.X, true
}
