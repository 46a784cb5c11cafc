package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// walkStack traverses n depth-first, invoking fn with each node and the
// stack of its ancestors (outermost first, excluding the node itself).
// Returning false prunes the subtree.
func walkStack(n ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Walk(stackVisitor{stack: &stack, fn: fn}, n)
}

type stackVisitor struct {
	stack *[]ast.Node
	fn    func(n ast.Node, stack []ast.Node) bool
}

// Visit pushes each visited node onto the shared stack; ast.Walk calls
// Visit(nil) after a node's children, which pops it again.
func (v stackVisitor) Visit(n ast.Node) ast.Visitor {
	if n == nil {
		*v.stack = (*v.stack)[:len(*v.stack)-1]
		return nil
	}
	if !v.fn(n, *v.stack) {
		return nil
	}
	*v.stack = append(*v.stack, n)
	return v
}

// isMap reports whether t's underlying type is a map.
func isMap(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// isFloat reports whether t is a floating-point (or complex) type.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&(types.IsFloat|types.IsComplex) != 0
}

// rootIdent peels selectors, indexing, stars, address-of, and parens off
// an expression and returns the base identifier: res.Rows[i] → res,
// (*p).x → p, &sb → sb.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil
			}
			e = x.X
		default:
			return nil
		}
	}
}

// objectOf resolves an identifier to its object via uses or defs.
func objectOf(info *types.Info, id *ast.Ident) types.Object {
	if o := info.Uses[id]; o != nil {
		return o
	}
	return info.Defs[id]
}

// declaredWithin reports whether obj's declaration lies inside [lo, hi].
func declaredWithin(obj types.Object, lo, hi token.Pos) bool {
	return obj != nil && obj.Pos() != token.NoPos && obj.Pos() >= lo && obj.Pos() <= hi
}

// calleeFunc resolves a call expression to the *types.Func it invokes,
// or nil for calls through function values, built-ins, and conversions.
// An explicit instantiation f[T](…) invokes f.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	switch x := fun.(type) {
	case *ast.IndexExpr:
		fun = x.X
	case *ast.IndexListExpr:
		fun = x.X
	}
	var id *ast.Ident
	switch fe := ast.Unparen(fun).(type) {
	case *ast.Ident:
		id = fe
	case *ast.SelectorExpr:
		id = fe.Sel
	default:
		return nil
	}
	fn, _ := objectOf(info, id).(*types.Func)
	return fn
}

// isAppend reports whether call is the append built-in.
func isAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := objectOf(info, id).(*types.Builtin)
	return ok && b.Name() == "append"
}

// mentionsObject reports whether the subtree contains an identifier
// resolving to obj.
func mentionsObject(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if id, ok := m.(*ast.Ident); ok && objectOf(info, id) == obj {
			found = true
		}
		return !found
	})
	return found
}

// enclosingFunc returns the innermost function declaration or literal in
// the ancestor stack.
func enclosingFunc(stack []ast.Node) ast.Node {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return stack[i]
		}
	}
	return nil
}
