package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AllocGate is the static allocation budget for the zero-allocation hot
// path (docs/static-analysis.md). Functions annotated //thesaurus:hotpath
// are roots; the analyzer computes the call-graph closure of every root —
// following direct calls across module-internal packages — and flags
// allocation constructs anywhere inside it:
//
//   - make, new, &T{…}, slice and map composite literals (plain value
//     struct/array literals are stack-resident and allowed)
//   - append whose result is not assigned back with `=` (the amortized
//     scratch-reuse idiom `x = append(x, …)` is the sanctioned shape)
//   - calls into fmt, errors, sort, reflect, and regexp (formatting and
//     reflection allocate; hot errors must be package-level sentinels)
//   - interface conversions that box a non-pointer value — explicit, and
//     implicit at call arguments, assignments, variable declarations,
//     returns, channel sends, and struct-literal fields — method values
//     (bound-method closures), and function literals
//   - string↔[]byte conversions, defer inside a loop, go statements, and
//     map iteration
//
// The closure is a static call graph: every call in it must name its
// callee. A call through a function value or an interface method is a
// finding of its own, and the walk does not continue past it.
//
// Descent stops at functions annotated //thesaurus:allocok <reason> — the
// sanctioned allocation boundaries (cold pool refills, amortized growth).
// Arguments of panic calls are exempt: a dying process may format its
// last words.
//
// Findings are worded identically from whichever analysis unit reaches a
// construct, so the runner's global dedup collapses multi-root reports.
var AllocGate = &Analyzer{
	Name: "allocgate",
	Doc:  "flag allocation constructs reachable from //thesaurus:hotpath roots",
	Run:  runAllocGate,
}

// allocDenyPkgs are standard-library packages whose calls are flagged
// inside the hot closure. Everything else in the standard library is
// assumed allocation-free (math/bits, encoding/binary's direct put/get
// forms); module-internal callees are walked instead of assumed.
var allocDenyPkgs = []string{"errors", "fmt", "reflect", "regexp", "sort"}

func runAllocGate(pass *Pass) {
	if !pass.SimPackage {
		return
	}
	w := &allocWalker{
		pass: pass,
		byPkg: map[*types.Package]*allocUnit{
			pass.Pkg: {pkg: pass.Pkg, files: pass.Files, info: pass.Info},
		},
		visited: map[*types.Func]bool{},
	}

	// Roots: pragma-marked declarations in this unit's non-test files, in
	// source order (deterministic BFS ⇒ deterministic findings).
	var queue []*types.Func
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || !hasPragmaVerb(fd, pragmaHotPath) || pass.InTestFile(fd.Pos()) {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				queue = append(queue, fn)
			}
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		fn = origin(fn)
		if w.visited[fn] {
			continue
		}
		w.visited[fn] = true
		queue = append(queue, w.checkFunc(fn)...)
	}
}

// allocUnit is one package's syntax+types view: the current analysis
// unit, or a module-internal package the closure walk reached.
type allocUnit struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
	decls map[types.Object]*ast.FuncDecl
}

// declIndex maps the unit's function objects to their declarations.
func (u *allocUnit) declIndex() map[types.Object]*ast.FuncDecl {
	if u.decls != nil {
		return u.decls
	}
	u.decls = map[types.Object]*ast.FuncDecl{}
	for _, f := range u.files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if obj := u.info.Defs[fd.Name]; obj != nil {
					u.decls[obj] = fd
				}
			}
		}
	}
	return u.decls
}

type allocWalker struct {
	pass    *Pass
	byPkg   map[*types.Package]*allocUnit
	visited map[*types.Func]bool
}

func (w *allocWalker) moduleInternal(path string) bool {
	mp := w.pass.loader.ModulePath
	return path == mp || strings.HasPrefix(path, mp+"/")
}

// origin normalizes instantiated generic methods/functions to their
// declared form, which is what the declaration indexes are keyed by.
func origin(fn *types.Func) *types.Func {
	if o := fn.Origin(); o != nil {
		return o
	}
	return fn
}

// declOf resolves a function to its declaring unit and syntax, loading a
// module-internal package on first use, or nils when the body is out of
// reach (stdlib, assembly, fixtures).
func (w *allocWalker) declOf(fn *types.Func) (*allocUnit, *ast.FuncDecl) {
	pkg := fn.Pkg()
	if pkg == nil {
		return nil, nil
	}
	u := w.byPkg[pkg]
	if u == nil {
		if w.pass.loader == nil || !w.moduleInternal(pkg.Path()) {
			return nil, nil
		}
		mu := w.pass.loader.moduleUnit(pkg.Path())
		if mu == nil || mu.Pkg != pkg {
			return nil, nil
		}
		u = &allocUnit{pkg: mu.Pkg, files: mu.Files, info: mu.Info}
		w.byPkg[mu.Pkg] = u
	}
	return u, u.declIndex()[fn]
}

// funcLabel renders a function for findings: Fingerprint, (*Cache).Read.
// The label depends only on the function itself so that reports are
// identical from whichever unit reaches it.
func funcLabel(fn *types.Func) string {
	fn = origin(fn)
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := types.TypeString(sig.Recv().Type(), func(*types.Package) string { return "" })
		return "(" + strings.TrimSuffix(t, ".") + ")." + fn.Name()
	}
	return fn.Name()
}

// checkFunc walks one closure member's body, reporting allocation
// constructs and returning the module-internal callees to visit next.
func (w *allocWalker) checkFunc(fn *types.Func) []*types.Func {
	u, decl := w.declOf(fn)
	if decl == nil || decl.Body == nil {
		return nil
	}
	if hasPragmaVerb(decl, pragmaAllocOK) {
		return nil // sanctioned allocation boundary: do not descend
	}
	label := funcLabel(fn)
	sig, _ := fn.Type().(*types.Signature)
	var callees []*types.Func
	walkStack(decl.Body, func(n ast.Node, stack []ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			if x.Tok == token.ASSIGN && len(x.Lhs) == len(x.Rhs) {
				for i := range x.Lhs {
					w.checkImplicitBox(u, x.Rhs[i], u.info.TypeOf(x.Lhs[i]), label, "assignment")
				}
			}
		case *ast.ValueSpec:
			if x.Type != nil && len(x.Names) == len(x.Values) {
				dst := u.info.TypeOf(x.Type)
				for _, v := range x.Values {
					w.checkImplicitBox(u, v, dst, label, "variable declaration")
				}
			}
		case *ast.ReturnStmt:
			// FuncLit subtrees are pruned, so these results belong to the
			// hot function's own signature. Naked returns have no
			// conversion site; assignments to named results are caught by
			// the assignment case.
			if sig != nil {
				if res := sig.Results(); res != nil && len(x.Results) == res.Len() {
					for i, r := range x.Results {
						w.checkImplicitBox(u, r, res.At(i).Type(), label, "return")
					}
				}
			}
		case *ast.SendStmt:
			if ch, ok := u.info.TypeOf(x.Chan).Underlying().(*types.Chan); ok {
				w.checkImplicitBox(u, x.Value, ch.Elem(), label, "channel send")
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := ast.Unparen(x.X).(*ast.CompositeLit); ok {
					w.pass.Reportf(x.Pos(),
						"&composite literal in hot-path function %s heap-allocates; use a value struct or a pooled object", label)
					return false
				}
			}
		case *ast.CompositeLit:
			switch t := u.info.TypeOf(x).Underlying().(type) {
			case *types.Slice:
				w.pass.Reportf(x.Pos(),
					"slice literal in hot-path function %s allocates backing storage; reuse a preallocated scratch slice", label)
				return false
			case *types.Map:
				w.pass.Reportf(x.Pos(),
					"map literal in hot-path function %s allocates; hoist the map to construction", label)
				return false
			case *types.Struct:
				// The literal itself is stack-resident, but an interface
				// field still boxes its initializer.
				for i, el := range x.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							if f := structFieldByName(t, id.Name); f != nil {
								w.checkImplicitBox(u, kv.Value, f.Type(), label, "struct-literal field")
							}
						}
					} else if i < t.NumFields() {
						w.checkImplicitBox(u, el, t.Field(i).Type(), label, "struct-literal field")
					}
				}
			}
			// Value struct/array literals live on the stack: allowed.
		case *ast.CallExpr:
			return w.checkCall(u, x, stack, label, &callees)
		case *ast.RangeStmt:
			if isMap(u.info.TypeOf(x.X)) {
				w.pass.Reportf(x.Pos(),
					"map iteration in hot-path function %s: randomized order and hash walking do not belong on the hot path; use an index- or slice-backed structure", label)
			}
		case *ast.DeferStmt:
			if inLoop(stack) {
				w.pass.Reportf(x.Pos(),
					"defer inside a loop in hot-path function %s allocates per iteration; move the defer out of the loop", label)
			}
		case *ast.GoStmt:
			w.pass.Reportf(x.Pos(),
				"go statement in hot-path function %s allocates a goroutine stack; hoist worker startup out of the hot path", label)
		case *ast.FuncLit:
			w.pass.Reportf(x.Pos(),
				"function literal in hot-path function %s allocates a closure; hoist it to construction or inline the logic", label)
			return false
		case *ast.SelectorExpr:
			if sel := u.info.Selections[x]; sel != nil && sel.Kind() == types.MethodVal && !isCallFun(stack, x) {
				w.pass.Reportf(x.Pos(),
					"method value %s.%s in hot-path function %s allocates a bound-method closure; call the method directly",
					exprText(x.X), x.Sel.Name, label)
			}
		}
		return true
	})
	return callees
}

// checkCall handles one call expression: allocation built-ins, the append
// discipline, conversions, boxing call arguments, denylisted standard
// library packages, and callee collection. Returns false to prune the
// subtree (panic arguments are exempt from the gate).
func (w *allocWalker) checkCall(u *allocUnit, call *ast.CallExpr, stack []ast.Node, label string, callees *[]*types.Func) bool {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := objectOf(u.info, id).(*types.Builtin); ok {
			switch b.Name() {
			case "panic":
				return false // a dying process may format its last words
			case "make":
				w.pass.Reportf(call.Pos(),
					"make in hot-path function %s allocates; hoist the allocation to construction or mark a sanctioned boundary //thesaurus:allocok <reason>", label)
			case "new":
				w.pass.Reportf(call.Pos(),
					"new in hot-path function %s allocates; hoist to construction or use a stack value", label)
			case "append":
				if !appendAssignedBack(call, stack) {
					w.pass.Reportf(call.Pos(),
						"append in hot-path function %s does not assign its result back with =; use the x = append(x, …) scratch-reuse idiom so capacity amortizes", label)
				}
			}
			return true
		}
	}
	// Conversion? T(x) allocates when T is an interface boxing a value, or
	// for string↔[]byte/[]rune copies.
	if tv, ok := u.info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type
		src := u.info.TypeOf(call.Args[0])
		if types.IsInterface(dst) && src != nil && !types.IsInterface(src) && !pointerShaped(src) {
			w.pass.Reportf(call.Pos(),
				"conversion to interface in hot-path function %s boxes a %s on the heap; pass a pointer or keep the call monomorphic",
				label, typeLabel(src))
		}
		if stringBytesConversion(dst, src) {
			w.pass.Reportf(call.Pos(),
				"string/byte-slice conversion in hot-path function %s copies and allocates; keep one representation on the hot path", label)
		}
		return true
	}
	fn := calleeFunc(u.info, call)
	indirect := "function value"
	if fn != nil {
		indirect = ""
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			indirect = "interface method"
		}
	}
	if indirect != "" {
		w.pass.Reportf(call.Pos(),
			"call through %s %s in hot-path function %s: the allocation gate cannot see its callee; call a function or method directly",
			indirect, exprText(call.Fun), label)
		return true
	}
	if w.denyCall(call.Pos(), fn, label) {
		return true
	}
	// The call's own signature instantiates a generic callee's parameters.
	if sig, ok := u.info.TypeOf(call.Fun).(*types.Signature); ok {
		w.boxingArgs(u, call, sig, label)
	}
	if pkg := fn.Pkg(); pkg != nil && (w.pass.loader != nil && w.moduleInternal(pkg.Path()) || w.byPkg[pkg] != nil) {
		*callees = append(*callees, fn)
	}
	return true
}

// denyCall reports fn if it lives in a denylisted standard-library
// package, returning whether it did.
func (w *allocWalker) denyCall(pos token.Pos, fn *types.Func, label string) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	for _, deny := range allocDenyPkgs {
		if pkg.Path() == deny {
			w.pass.Reportf(pos,
				"call to %s.%s in hot-path function %s allocates; precompute, use package-level sentinel errors, or mark a sanctioned boundary //thesaurus:allocok <reason>",
				pkg.Path(), fn.Name(), label)
			return true
		}
	}
	return false
}

// checkImplicitBox flags an implicit concrete→interface conversion at a
// non-call site — assignment, declaration, return, channel send,
// struct-literal field. The conversion is invisible in the source but
// allocates all the same.
func (w *allocWalker) checkImplicitBox(u *allocUnit, e ast.Expr, dst types.Type, label, site string) {
	if dst == nil || !types.IsInterface(dst) {
		return
	}
	src := u.info.TypeOf(e)
	if src == nil || types.IsInterface(src) || pointerShaped(src) {
		return
	}
	if b, ok := src.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return
	}
	w.pass.Reportf(e.Pos(),
		"%s boxes a %s into an interface in hot-path function %s; pass a pointer or keep the value concrete",
		site, typeLabel(src), label)
}

// boxingArgs flags arguments boxed into interface parameters: the
// conversion is implicit at the call site but allocates all the same.
func (w *allocWalker) boxingArgs(u *allocUnit, call *ast.CallExpr, sig *types.Signature, label string) {
	params := sig.Params()
	if params == nil {
		return
	}
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (!sig.Variadic() && i < params.Len()):
			pt = params.At(i).Type()
		case sig.Variadic():
			if call.Ellipsis.IsValid() {
				continue // slice passed through, no per-element boxing
			}
			st, ok := params.At(params.Len() - 1).Type().(*types.Slice)
			if !ok {
				continue
			}
			pt = st.Elem()
		default:
			continue
		}
		at := u.info.TypeOf(arg)
		if at == nil || !types.IsInterface(pt) || types.IsInterface(at) || pointerShaped(at) {
			continue
		}
		if b, ok := at.(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		w.pass.Reportf(arg.Pos(),
			"argument boxes a %s into an interface parameter in hot-path function %s; pass a pointer or keep the call monomorphic",
			typeLabel(at), label)
	}
}

// appendAssignedBack reports whether the append call's result is stored
// with a plain `=` assignment — the amortized scratch-reuse idiom. A `:=`
// binding, return value, or argument position starts a fresh slice the
// caller did not size.
func appendAssignedBack(call *ast.CallExpr, stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			continue
		case *ast.AssignStmt:
			if p.Tok != token.ASSIGN {
				return false
			}
			for _, rhs := range p.Rhs {
				if ast.Unparen(rhs) == call {
					return true
				}
			}
			return false
		default:
			return false
		}
	}
	return false
}

// inLoop reports whether the nearest enclosing loop is inside the same
// function as the node (the stack is rooted at the walked body).
func inLoop(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i].(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			return true
		case *ast.FuncLit:
			return false
		}
	}
	return false
}

// isCallFun reports whether sel is the function operand of its parent
// call (a plain method call, not a method value).
func isCallFun(stack []ast.Node, sel ast.Expr) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch p := stack[i].(type) {
		case *ast.ParenExpr:
			continue
		case *ast.CallExpr:
			return ast.Unparen(p.Fun) == sel
		default:
			return false
		}
	}
	return false
}

// pointerShaped reports whether values of t fit an interface word without
// allocating: pointers, channels, maps, functions, unsafe pointers.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// stringBytesConversion reports the allocating string↔[]byte/[]rune
// conversion shapes.
func stringBytesConversion(dst, src types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.Underlying().(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteish := func(t types.Type) bool {
		s, ok := t.Underlying().(*types.Slice)
		if !ok {
			return false
		}
		e, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (e.Kind() == types.Byte || e.Kind() == types.Uint8 || e.Kind() == types.Rune || e.Kind() == types.Int32)
	}
	if src == nil {
		return false
	}
	return (isStr(dst) && isByteish(src)) || (isByteish(dst) && isStr(src))
}

// structFieldByName resolves a keyed composite-literal field name to its
// struct field.
func structFieldByName(t *types.Struct, name string) *types.Var {
	for i := 0; i < t.NumFields(); i++ {
		if f := t.Field(i); f.Name() == name {
			return f
		}
	}
	return nil
}

// typeLabel renders a type without package qualification, for stable
// cross-unit messages.
func typeLabel(t types.Type) string {
	return types.TypeString(t, func(*types.Package) string { return "" })
}

// exprText renders a short source-ish form of the simple expressions
// findings name: method-value receivers and indirect callees (r, s.fn,
// fs[0], m[k]).
func exprText(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.BasicLit:
		return x.Value
	case *ast.SelectorExpr:
		return exprText(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprText(x.X) + "[" + exprText(x.Index) + "]"
	}
	return "expr"
}
