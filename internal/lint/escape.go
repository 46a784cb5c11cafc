package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// The escape budget is the allocation gate (docs/static-analysis.md): the
// compiler decides what escapes, and alloc.budget holds each hot-path
// root to a count of proven escapes. A //thesaurus:hotpath function is a
// root; its closure is every function it reaches through direct calls
// into module packages, stopping at //thesaurus:allocok boundaries.
// TestRepoEscapeBudget builds every package the closure touches with
// -gcflags=-m and counts each proven escape against every root whose
// closure holds the function containing it, except:
//
//  1. a site inside a panic(...) argument: a dying process may format its
//     last words;
//  2. a site at the ( of a call to a module function: that is where the
//     compiler reports an inlined callee's escape, which the callee's own
//     body reports too. The "... argument" slice a variadic call builds
//     is the caller's own and still counts;
//  3. a site in an allocok function: the boundary is outside the closure;
//  4. a repeat of a site (file, line, column and message): a generic
//     function prints each site once per instantiation.
//
// A call through a function value or an interface method inside the
// closure is a failure of its own: the walk cannot see its callee.

// EscapeSite is one compiler-reported heap allocation.
type EscapeSite struct {
	File string // module-relative
	Line int
	Col  int
	Msg  string
}

func (s EscapeSite) String() string {
	return fmt.Sprintf("%s:%d:%d: %s", s.File, s.Line, s.Col, s.Msg)
}

// srcPos is a module-relative source position, in the compiler's terms.
type srcPos struct {
	File      string
	Line, Col int
}

func (p srcPos) String() string {
	return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col)
}

// notAfter reports whether p comes no later than q in the same file.
func (p srcPos) notAfter(q srcPos) bool {
	return p.File == q.File && (p.Line < q.Line || p.Line == q.Line && p.Col <= q.Col)
}

// funcSpan is the declaration of one closure member: its module-relative
// file and line range.
type funcSpan struct {
	File       string
	Start, End int
}

// Closure is the static call graph of the hot-path roots.
type Closure struct {
	// Roots maps each root, keyed "<pkgpath>.<label>" (for example
	// "repro/internal/thesaurus.(*Cache).Read"), to the declarations of
	// the functions its closure holds, the root's own first.
	Roots map[string][]funcSpan
	// Dirs are the module-relative directories of the packages the
	// closure touches, sorted: the packages the compiler must build.
	Dirs []string
	// Unfollowable names each call through a function value or an
	// interface method inside the closure, in walk order.
	Unfollowable []string

	panicArgs   [][2]srcPos     // the ( and ) of each panic call (rule 1)
	moduleCalls map[srcPos]bool // the ( of each call to a module function (rule 2)
}

// WalkClosure takes every //thesaurus:hotpath function declared in the
// non-test files of the packages at paths as a root, loading them with l,
// and walks each root's closure.
func WalkClosure(l *Loader, paths []string) (*Closure, error) {
	w := &closureWalker{
		l:       l,
		c:       &Closure{Roots: map[string][]funcSpan{}, moduleCalls: map[srcPos]bool{}},
		decls:   map[*types.Package]map[types.Object]*ast.FuncDecl{},
		members: map[*types.Func]*closureFunc{},
	}
	var roots []*types.Func
	for _, path := range paths {
		if _, err := l.Import(path); err != nil {
			return nil, err
		}
		u := l.units[path]
		for _, f := range u.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && hasPragmaVerb(fd, pragmaHotPath) {
					if fn, ok := u.Info.Defs[fd.Name].(*types.Func); ok {
						roots = append(roots, fn)
					}
				}
			}
		}
	}
	dirs := map[string]bool{}
	for _, root := range roots {
		var spans []funcSpan
		seen := map[*types.Func]bool{}
		for queue := []*types.Func{root}; len(queue) > 0; queue = queue[1:] {
			fn := origin(queue[0])
			if seen[fn] {
				continue
			}
			seen[fn] = true
			if m := w.member(fn); m != nil {
				spans = append(spans, m.span)
				dirs[filepath.ToSlash(filepath.Dir(m.span.File))] = true
				queue = append(queue, m.callees...)
			}
		}
		w.c.Roots[root.Pkg().Path()+"."+funcLabel(root)] = spans
	}
	for d := range dirs {
		w.c.Dirs = append(w.c.Dirs, d)
	}
	sort.Strings(w.c.Dirs)
	return w.c, nil
}

// closureFunc is one closure member: its declaration and the module
// functions it calls directly.
type closureFunc struct {
	span    funcSpan
	callees []*types.Func
}

type closureWalker struct {
	l       *Loader
	c       *Closure
	decls   map[*types.Package]map[types.Object]*ast.FuncDecl
	members map[*types.Func]*closureFunc // nil for a function outside every closure
}

// member walks fn's body once, recording its panic arguments, its calls
// to module functions and its unfollowable calls. It returns nil when fn
// is no closure member: an allocok boundary, or a function without a body
// in the module.
func (w *closureWalker) member(fn *types.Func) *closureFunc {
	if m, ok := w.members[fn]; ok {
		return m
	}
	w.members[fn] = nil
	info, decl := w.declOf(fn)
	if decl == nil || decl.Body == nil || hasPragmaVerb(decl, pragmaAllocOK) {
		return nil
	}
	start, end := w.pos(decl.Pos()), w.pos(decl.End())
	m := &closureFunc{span: funcSpan{File: start.File, Start: start.Line, End: end.Line}}
	label := funcLabel(fn)
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, ok := objectOf(info, id).(*types.Builtin); ok {
				if b.Name() == "panic" {
					w.c.panicArgs = append(w.c.panicArgs, [2]srcPos{w.pos(call.Lparen), w.pos(call.Rparen)})
					return false
				}
				return true
			}
		}
		if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
			return true // a conversion
		}
		callee := calleeFunc(info, call)
		indirect := "function value"
		if callee != nil {
			indirect = ""
			if recv := callee.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				indirect = "interface method"
			}
		}
		if indirect != "" {
			w.c.Unfollowable = append(w.c.Unfollowable, fmt.Sprintf(
				"%s: call through %s %s in hot-path function %s: the escape budget cannot see its callee; call a function or method directly",
				w.pos(call.Pos()), indirect, exprText(call.Fun), label))
			return true
		}
		if pkg := callee.Pkg(); pkg != nil && w.l.inModule(pkg.Path()) {
			w.c.moduleCalls[w.pos(call.Lparen)] = true
			m.callees = append(m.callees, callee)
		}
		return true
	})
	w.members[fn] = m
	return m
}

// declOf resolves a function to its package's type information and its
// declaration, or nils when the body is out of reach (outside the module,
// or assembly).
func (w *closureWalker) declOf(fn *types.Func) (*types.Info, *ast.FuncDecl) {
	pkg := fn.Pkg()
	if pkg == nil || !w.l.inModule(pkg.Path()) {
		return nil, nil
	}
	u := w.l.moduleUnit(pkg.Path())
	if u == nil || u.Pkg != pkg {
		return nil, nil
	}
	idx := w.decls[pkg]
	if idx == nil {
		idx = map[types.Object]*ast.FuncDecl{}
		for _, f := range u.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok {
					idx[u.Info.Defs[fd.Name]] = fd
				}
			}
		}
		w.decls[pkg] = idx
	}
	return u.Info, idx[fn]
}

// pos renders p module-relative, as the compiler prints it.
func (w *closureWalker) pos(p token.Pos) srcPos {
	pp := w.l.Fset.Position(p)
	file := pp.Filename
	if rel, err := filepath.Rel(w.l.ModuleDir, file); err == nil {
		file = filepath.ToSlash(rel)
	}
	return srcPos{File: file, Line: pp.Line, Col: pp.Column}
}

// origin normalizes instantiated generic methods/functions to their
// declared form, which is what the declaration indexes are keyed by.
func origin(fn *types.Func) *types.Func {
	if o := fn.Origin(); o != nil {
		return o
	}
	return fn
}

// funcLabel renders a function for budget keys and messages: Fingerprint,
// (*Cache).Read.
func funcLabel(fn *types.Func) string {
	fn = origin(fn)
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := types.TypeString(sig.Recv().Type(), func(*types.Package) string { return "" })
		return "(" + strings.TrimSuffix(t, ".") + ")." + fn.Name()
	}
	return fn.Name()
}

// exprText renders a short source-ish form of an indirect callee: f,
// h.fn, fs[0], m[k].
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

// Attribute counts each escape site against every root whose closure
// holds the function containing it, leaving out the sites in panic
// arguments and those at a module call's (. Every root has an entry,
// empty when nothing is counted against it.
func (c *Closure) Attribute(sites []EscapeSite) map[string][]EscapeSite {
	var kept []EscapeSite
	for _, s := range sites {
		if !c.exempt(s) {
			kept = append(kept, s)
		}
	}
	out := map[string][]EscapeSite{}
	for k, spans := range c.Roots {
		var counted []EscapeSite
		for _, s := range kept {
			for _, sp := range spans {
				if s.File == sp.File && s.Line >= sp.Start && s.Line <= sp.End {
					counted = append(counted, s)
					break
				}
			}
		}
		out[k] = counted
	}
	return out
}

// exempt applies attribution rules 1 and 2 to a site.
func (c *Closure) exempt(s EscapeSite) bool {
	at := srcPos{File: s.File, Line: s.Line, Col: s.Col}
	for _, r := range c.panicArgs {
		if r[0].notAfter(at) && at.notAfter(r[1]) {
			return true
		}
	}
	return c.moduleCalls[at] && !strings.HasPrefix(s.Msg, "... argument")
}

// CollectEscapes builds the given module-relative package directories
// with -gcflags=-m and returns the escape diagnostics. The toolchain
// replays -m output from the build cache, so repeated runs are cheap.
func CollectEscapes(moduleDir string, dirs []string) ([]EscapeSite, error) {
	if len(dirs) == 0 {
		return nil, nil
	}
	args := []string{"build", "-gcflags=-m"}
	for _, d := range dirs {
		args = append(args, "./"+d)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = moduleDir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	return parseEscapes(string(out)), nil
}

// parseEscapes extracts the escape diagnostics ("x escapes to heap",
// "moved to heap: x") from -gcflags=-m output, dropping the inlining
// chatter, and returns each distinct site once, sorted by file, line,
// column and message.
func parseEscapes(out string) []EscapeSite {
	var sites []EscapeSite
	for _, ln := range strings.Split(out, "\n") {
		if !strings.Contains(ln, "escapes to heap") && !strings.Contains(ln, "moved to heap") {
			continue
		}
		parts := strings.SplitN(ln, ":", 4)
		if len(parts) != 4 || !strings.HasSuffix(parts[0], ".go") {
			continue
		}
		line, err1 := strconv.Atoi(parts[1])
		col, err2 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil {
			continue
		}
		sites = append(sites, EscapeSite{
			// The compiler prints root-package files as ./x.go; the
			// closure records them as x.go.
			File: filepath.ToSlash(filepath.Clean(parts[0])),
			Line: line,
			Col:  col,
			Msg:  strings.TrimSpace(parts[3]),
		})
	}
	sort.Slice(sites, func(i, j int) bool {
		a, b := sites[i], sites[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Msg < b.Msg
	})
	uniq := sites[:0]
	for i, s := range sites {
		if i == 0 || s != sites[i-1] {
			uniq = append(uniq, s)
		}
	}
	return uniq
}

// ParseBudget reads an alloc.budget file: line-oriented,
// `<pkgpath>.<label> <count>`, #-comments and blank lines skipped.
func ParseBudget(path string) (map[string]int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	counts := map[string]int{}
	for i, ln := range strings.Split(string(data), "\n") {
		line := strings.TrimSpace(ln)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			return nil, fmt.Errorf("%s:%d: budget entry needs `<function> <count>`, got %q", path, i+1, line)
		}
		n, err := strconv.Atoi(fields[1])
		if err != nil || n < 0 {
			return nil, fmt.Errorf("%s:%d: bad escape count %q", path, i+1, fields[1])
		}
		if _, dup := counts[fields[0]]; dup {
			return nil, fmt.Errorf("%s:%d: duplicate budget entry for %s", path, i+1, fields[0])
		}
		counts[fields[0]] = n
	}
	return counts, nil
}

// FormatBudget renders a budget file from attributed escape counts,
// sorted by function key.
func FormatBudget(attributed map[string][]EscapeSite) []byte {
	keys := make([]string, 0, len(attributed))
	for k := range attributed {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("# Escape budget for //thesaurus:hotpath functions (docs/static-analysis.md).\n")
	b.WriteString("# Format: <pkgpath>.<function> <compiler-proven escape sites>\n")
	b.WriteString("# Regenerate with `make alloc-budget`; CI fails on any drift in either direction.\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %d\n", k, len(attributed[k]))
	}
	return []byte(b.String())
}

// DiffBudget compares attributed escapes against the committed budget
// and returns human-readable failures: new escapes (with the compiler's
// exact sites), stale over-budget entries, hot functions missing from
// the budget, and budget entries whose function lost its pragma.
func DiffBudget(budget map[string]int, attributed map[string][]EscapeSite) []string {
	keys := make([]string, 0, len(attributed))
	for k := range attributed {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var failures []string
	for _, k := range keys {
		sites := attributed[k]
		want, ok := budget[k]
		switch {
		case !ok:
			failures = append(failures, fmt.Sprintf(
				"%s is //thesaurus:hotpath but missing from the budget (%d escape site(s)); add it via `make alloc-budget` and justify any non-zero count", k, len(sites)))
		case len(sites) > want:
			msg := fmt.Sprintf("%s: %d escape site(s), budget allows %d:", k, len(sites), want)
			for _, s := range sites {
				msg += "\n\tnew escape at " + s.String()
			}
			failures = append(failures, msg)
		case len(sites) < want:
			failures = append(failures, fmt.Sprintf(
				"%s: budget allows %d escape site(s) but the compiler proves only %d; ratchet the budget down via `make alloc-budget`", k, want, len(sites)))
		}
	}
	var stale []string
	for k := range budget {
		if _, ok := attributed[k]; !ok {
			stale = append(stale, k)
		}
	}
	sort.Strings(stale)
	for _, k := range stale {
		failures = append(failures, fmt.Sprintf(
			"budget entry %s has no //thesaurus:hotpath function; delete it or restore the pragma", k))
	}
	return failures
}
