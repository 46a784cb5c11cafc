package lint

import (
	"go/ast"
	"go/types"
)

// ParMapDiscipline enforces the worker-pool discipline that makes the
// parallel campaign loops sound: a goroutine closure (a `go func` body
// or a callback handed to ParMap) must communicate through write-by-
// index slots or channels, never by appending to or reassigning captured
// shared state. Captured-state mutation is both a data race and a
// completion-order dependence — results would assemble in whatever
// order the scheduler finishes workers. Mutex-guarded sections are
// recognized (the race disappears; any remaining order sensitivity on
// floats is float-order's business).
var ParMapDiscipline = &Analyzer{
	Name: "parmap-discipline",
	Doc:  "flag goroutine/ParMap closures mutating captured shared state instead of writing by index",
	Run:  runParMapDiscipline,
}

func runParMapDiscipline(pass *Pass) {
	for _, fl := range concurrentFuncLits(pass) {
		checkConcurrentLit(pass, fl)
	}
}

// concurrentFuncLits yields, in source order, every function literal
// that runs on another goroutine: `go func(){…}` bodies and literals
// passed to a function named ParMap.
func concurrentFuncLits(pass *Pass) []*ast.FuncLit {
	var out []*ast.FuncLit
	seen := map[*ast.FuncLit]bool{}
	add := func(fl *ast.FuncLit) {
		if !seen[fl] {
			seen[fl] = true
			out = append(out, fl)
		}
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.GoStmt:
				if fl, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
					add(fl)
				}
			case *ast.CallExpr:
				callee := calleeFunc(pass.Info, s)
				if callee == nil || callee.Name() != "ParMap" {
					return true
				}
				for _, arg := range s.Args {
					if fl, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
						add(fl)
					}
				}
			}
			return true
		})
	}
	return out
}

func checkConcurrentLit(pass *Pass, fl *ast.FuncLit) {
	walkStack(fl.Body, func(n ast.Node, stack []ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range s.Lhs {
				checkConcurrentWrite(pass, fl, stack, s, lhs, i)
			}
		case *ast.IncDecStmt:
			if obj := capturedTarget(pass, fl, s.X); obj != nil && !indexedWrite(pass, fl, s.X) &&
				!mutexGuarded(pass, append(stack, s)) {
				pass.Reportf(s.Pos(),
					"%s of captured %s inside a goroutine closure: shared-state mutation races and depends on "+
						"worker completion order; write results by index or guard with a mutex", s.Tok, obj.Name())
			}
		}
		return true
	})
}

func checkConcurrentWrite(pass *Pass, fl *ast.FuncLit, stack []ast.Node, s *ast.AssignStmt, lhs ast.Expr, i int) {
	obj := capturedTarget(pass, fl, lhs)
	if obj == nil {
		return
	}
	if indexedWrite(pass, fl, lhs) {
		return // the sanctioned out[i] = v pattern
	}
	if mutexGuarded(pass, append(stack, s)) {
		return
	}
	if i < len(s.Rhs) {
		if call, ok := ast.Unparen(s.Rhs[i]).(*ast.CallExpr); ok && isAppend(pass.Info, call) {
			pass.Reportf(s.Pos(),
				"append to captured %s inside a goroutine closure: element order depends on worker "+
					"completion order (and the append races); write results by index into a preallocated slice",
				obj.Name())
			return
		}
	}
	what := "assignment to"
	if _, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
		what = "keyed write into"
	}
	pass.Reportf(s.Pos(),
		"%s captured %s inside a goroutine closure: shared-state mutation races and depends on "+
			"worker completion order; write results by index or guard with a mutex", what, obj.Name())
}

// capturedTarget resolves lhs's root identifier to a variable declared
// outside the function literal (captured shared state), or nil.
func capturedTarget(pass *Pass, fl *ast.FuncLit, lhs ast.Expr) types.Object {
	id := rootIdent(lhs)
	if id == nil || id.Name == "_" {
		return nil
	}
	obj := objectOf(pass.Info, id)
	if obj == nil || declaredWithin(obj, fl.Pos(), fl.End()) {
		return nil
	}
	if _, ok := obj.(*types.Var); !ok {
		return nil
	}
	return obj
}

// indexedWrite reports whether the lvalue goes through an index into a
// slice or array (out[i] = v, out[i].Field = v): disjoint-slot writes
// are the sanctioned way to return worker results. Map indexing does
// not qualify — concurrent map writes race.
func indexedWrite(pass *Pass, fl *ast.FuncLit, lhs ast.Expr) bool {
	for {
		switch x := lhs.(type) {
		case *ast.IndexExpr:
			t := pass.Info.TypeOf(x.X)
			if t == nil {
				return false
			}
			switch t.Underlying().(type) {
			case *types.Slice, *types.Array, *types.Pointer:
				return true
			}
			return false
		case *ast.SelectorExpr:
			lhs = x.X
		case *ast.StarExpr:
			lhs = x.X
		case *ast.ParenExpr:
			lhs = x.X
		default:
			return false
		}
	}
}

// mutexGuarded reports whether, in some enclosing block, a statement
// preceding the one containing the write calls a Lock/RLock method —
// the conventional critical-section shape:
//
//	mu.Lock()
//	if first == nil { first = err }
//	mu.Unlock()
func mutexGuarded(pass *Pass, stack []ast.Node) bool {
	for bi := len(stack) - 1; bi >= 0; bi-- {
		block, ok := stack[bi].(*ast.BlockStmt)
		if !ok || bi+1 >= len(stack) {
			continue
		}
		inner := stack[bi+1] // the child of block on the path to the write
		for _, st := range block.List {
			if st == inner {
				break
			}
			es, ok := st.(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				continue
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok &&
				(sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock") {
				return true
			}
		}
	}
	return false
}
