package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapOrder flags `for … range` over a map whose body feeds ordered
// output — appending to a slice, writing a builder/table/testing log,
// sending on a channel, or concatenating a string — without a
// subsequent deterministic sort. Go randomizes map iteration order per
// run, so this is exactly the bug shape that breaks the repository's
// byte-identical-report invariant. The sanctioned pattern is to collect
// the keys, sort them, and range over the sorted slice; a slice that is
// appended in the loop and sorted afterwards (the key-collection idiom)
// is recognized and allowed.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "flag map iteration that feeds ordered output without a deterministic sort",
	Run:  runMapOrder,
}

// orderedWriteMethods are method names that emit into an ordered sink.
var orderedWriteMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"AddRow": true, "AddRowf": true,
}

// testLogMethods are the testing.TB methods that render output (or stop
// the test) in iteration order.
var testLogMethods = map[string]bool{
	"Error": true, "Errorf": true, "Fatal": true, "Fatalf": true,
	"Log": true, "Logf": true, "Skip": true, "Skipf": true,
}

func runMapOrder(pass *Pass) {
	for _, f := range pass.Files {
		walkStack(f, func(n ast.Node, stack []ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok || !isMap(pass.Info.TypeOf(rng.X)) {
				return true
			}
			c := &mapOrderCheck{
				pass:    pass,
				rng:     rng,
				fn:      enclosingFunc(stack),
				visited: map[*ast.FuncLit]bool{},
			}
			c.checkBody(rng.Body)
			return true
		})
	}
}

// mapOrderCheck scans one map-range body, chasing calls into function
// literals declared in the same enclosing function (the local-closure
// idiom) so that appends routed through a helper closure are still
// attributed to the map iteration.
type mapOrderCheck struct {
	pass    *Pass
	rng     *ast.RangeStmt
	fn      ast.Node
	visited map[*ast.FuncLit]bool
	// locals are extra spans (closure bodies on the call path) whose
	// declarations count as loop-local rather than outer state.
	locals []span
}

type span struct{ lo, hi token.Pos }

func (c *mapOrderCheck) checkBody(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.SendStmt:
			c.pass.Reportf(s.Pos(),
				"channel send inside map iteration: receive order follows the randomized map order; "+
					"iterate a sorted key slice")
		case *ast.AssignStmt:
			checkMapRangeAssign(c, s)
		case *ast.CallExpr:
			checkMapRangeCall(c, s)
			c.chaseLocalClosure(s)
		}
		return true
	})
}

// chaseLocalClosure follows a call to a closure variable defined in the
// enclosing function and scans its body under the same rules.
func (c *mapOrderCheck) chaseLocalClosure(call *ast.CallExpr) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || c.fn == nil {
		return
	}
	obj, ok := objectOf(c.pass.Info, id).(*types.Var)
	if !ok {
		return
	}
	fl := localFuncLit(c.pass, c.fn, obj)
	if fl == nil || c.visited[fl] {
		return
	}
	c.visited[fl] = true
	c.locals = append(c.locals, span{fl.Pos(), fl.End()})
	c.checkBody(fl.Body)
	c.locals = c.locals[:len(c.locals)-1]
}

// localFuncLit finds the function literal bound to obj inside fn
// (`consider := func(…) {…}` or `var consider = func(…) {…}`).
func localFuncLit(pass *Pass, fn ast.Node, obj types.Object) *ast.FuncLit {
	var found *ast.FuncLit
	ast.Inspect(fn, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, lhs := range as.Lhs {
			lid, ok := lhs.(*ast.Ident)
			if !ok || objectOf(pass.Info, lid) != obj || i >= len(as.Rhs) {
				continue
			}
			if fl, ok := ast.Unparen(as.Rhs[i]).(*ast.FuncLit); ok {
				found = fl
			}
		}
		return found == nil
	})
	return found
}

// checkMapRangeAssign flags appends and string concatenation onto state
// declared outside the loop.
func checkMapRangeAssign(c *mapOrderCheck, s *ast.AssignStmt) {
	pass := c.pass
	// s += expr onto an outer string accumulates in map order.
	if s.Tok == token.ADD_ASSIGN && len(s.Lhs) == 1 {
		t := pass.Info.TypeOf(s.Lhs[0])
		if b, ok := t.(*types.Basic); ok && b.Info()&types.IsString != 0 {
			if obj := c.outerObject(s.Lhs[0]); obj != nil {
				pass.Reportf(s.Pos(),
					"string %s concatenated inside map iteration: output follows the randomized map order; "+
						"iterate a sorted key slice", obj.Name())
			}
		}
		return
	}
	for i, rhs := range s.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || !isAppend(pass.Info, call) || i >= len(s.Lhs) {
			continue
		}
		obj := c.outerObject(s.Lhs[i])
		if obj == nil {
			continue
		}
		if c.fn != nil && sortedAfter(pass, c.fn, c.rng, obj) {
			continue // key-collection idiom: append then sort
		}
		pass.Reportf(s.Pos(),
			"append to %s inside map iteration without a subsequent sort: element order follows the "+
				"randomized map order; sort %s afterwards or iterate a sorted key slice",
			obj.Name(), obj.Name())
	}
}

// checkMapRangeCall flags writer-method and testing-log calls.
func checkMapRangeCall(c *mapOrderCheck, call *ast.CallExpr) {
	pass := c.pass
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fnObj, _ := objectOf(pass.Info, sel.Sel).(*types.Func)
	if fnObj == nil {
		return
	}
	sig, _ := fnObj.Type().(*types.Signature)
	if sig == nil {
		return
	}
	name := fnObj.Name()
	if sig.Recv() == nil {
		// Package function: fmt.Fprintf(w, …) into an outer writer.
		if fnObj.Pkg() != nil && fnObj.Pkg().Path() == "fmt" && len(call.Args) > 0 {
			if _, ok := fmtFormatters[name]; ok && name[0] == 'F' {
				if obj := c.outerObject(call.Args[0]); obj != nil {
					pass.Reportf(call.Pos(),
						"fmt.%s into %s inside map iteration: output follows the randomized map order; "+
							"iterate a sorted key slice", name, obj.Name())
				}
			}
		}
		return
	}
	// Receiver identity comes from the selector's operand type, not the
	// method's declared receiver: testing.T's log methods are promoted
	// from the embedded testing.common.
	recvType := pass.Info.TypeOf(sel.X)
	if testLogMethods[name] && isTestingTB(recvType) {
		pass.Reportf(call.Pos(),
			"%s.%s inside map iteration: test output and failure order follow the randomized map order; "+
				"iterate a sorted key slice", recvName(sel), name)
		return
	}
	if orderedWriteMethods[name] && isOutputSink(recvType) {
		if obj := c.outerObject(sel.X); obj != nil {
			pass.Reportf(call.Pos(),
				"%s.%s inside map iteration: output follows the randomized map order; "+
					"iterate a sorted key slice", obj.Name(), name)
		}
	}
}

// outerObject resolves e's root identifier to a variable declared
// outside the loop and outside any closure body on the current call
// path (closure-local declarations are not shared state).
func (c *mapOrderCheck) outerObject(e ast.Expr) types.Object {
	id := rootIdent(e)
	if id == nil {
		return nil
	}
	obj := objectOf(c.pass.Info, id)
	if obj == nil || declaredWithin(obj, c.rng.Pos(), c.rng.End()) {
		return nil
	}
	for _, sp := range c.locals {
		if declaredWithin(obj, sp.lo, sp.hi) {
			return nil
		}
	}
	if _, ok := obj.(*types.Var); !ok {
		return nil
	}
	return obj
}

// isOutputSink reports whether t renders ordered output: a
// strings.Builder, bytes.Buffer, the report package's Table, or any
// interface carrying the io.Writer method.
func isOutputSink(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if iface, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == "Write" {
				return true
			}
		}
		return false
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return false
	}
	switch {
	case obj.Pkg().Path() == "strings" && obj.Name() == "Builder":
		return true
	case obj.Pkg().Path() == "bytes" && obj.Name() == "Buffer":
		return true
	case strings.HasSuffix(obj.Pkg().Path(), "internal/report"):
		return true
	}
	return false
}

// outerObject resolves e's root identifier to a variable declared
// outside the range statement (nil when the target is loop-local, e.g. a
// per-iteration builder).
func outerObject(pass *Pass, rng *ast.RangeStmt, e ast.Expr) types.Object {
	id := rootIdent(e)
	if id == nil {
		return nil
	}
	obj := objectOf(pass.Info, id)
	if obj == nil || declaredWithin(obj, rng.Pos(), rng.End()) {
		return nil
	}
	if _, ok := obj.(*types.Var); !ok {
		return nil
	}
	return obj
}

// sortedAfter reports whether, later in the enclosing function, obj is
// passed to a sort (package sort or slices, or a Sort method) — the
// collect-then-sort idiom that restores determinism.
func sortedAfter(pass *Pass, fn ast.Node, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		callee := calleeFunc(pass.Info, call)
		if callee == nil {
			return true
		}
		sorter := false
		if pkg := callee.Pkg(); pkg != nil && (pkg.Path() == "sort" || pkg.Path() == "slices") {
			sorter = true
		}
		if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil && callee.Name() == "Sort" {
			sorter = true
		}
		if !sorter {
			return true
		}
		if mentionsObject(pass.Info, call, obj) {
			found = true
		}
		return !found
	})
	return found
}

// isTestingTB reports whether t is *testing.T/B/F or the testing.TB
// interface.
func isTestingTB(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "testing" {
		return false
	}
	switch obj.Name() {
	case "T", "B", "F", "TB":
		return true
	}
	return false
}

func recvName(sel *ast.SelectorExpr) string {
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		return id.Name
	}
	return "t"
}
