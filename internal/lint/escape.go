package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// The escape budget is the second half of the allocation gate
// (docs/static-analysis.md): where the allocgate analyzer flags
// allocation *constructs* syntactically, this checker asks the compiler
// itself. It runs `go build -gcflags=-m` over every package containing a
// //thesaurus:hotpath function, attributes the compiler's proven
// escape-to-heap diagnostics to those functions by line range, and diffs
// the per-function counts against the committed alloc.budget file. A new
// escape on a hot function fails CI with the exact file:line the
// compiler reported; a budget entry larger than reality is flagged as
// stale, so the budget can only ratchet down.
//
// The scan is parser-only (no type checking): pragma attachment is a
// syntactic property, and the compiler run supplies the semantics.

// HotFunc is one //thesaurus:hotpath function located by the scan.
type HotFunc struct {
	// Key is "<pkgpath>.<label>", e.g. "repro/internal/thesaurus.(*Cache).Read".
	Key string
	// File is the module-relative source file; [StartLine, EndLine] spans
	// the declaration, which is how escape sites are attributed.
	File      string
	StartLine int
	EndLine   int
	// Dir is the module-relative package directory, "." for the root.
	Dir string
}

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

// ScanHotFuncs parses every non-test file in the module (syntax only)
// and returns the //thesaurus:hotpath functions in deterministic
// (directory, file, position) order.
func ScanHotFuncs(moduleDir string) ([]HotFunc, error) {
	modulePath, err := readModulePath(moduleDir)
	if err != nil {
		return nil, err
	}
	dirs, err := ModuleDirs(moduleDir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var out []HotFunc
	for _, dir := range dirs {
		relDir, err := filepath.Rel(moduleDir, dir)
		if err != nil {
			return nil, err
		}
		relDir = filepath.ToSlash(relDir)
		pkgPath := modulePath
		if relDir != "." {
			pkgPath = modulePath + "/" + relDir
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !hasPragmaVerb(fd, pragmaHotPath) {
					continue
				}
				relFile := relDir + "/" + name
				if relDir == "." {
					relFile = name
				}
				out = append(out, HotFunc{
					Key:       pkgPath + "." + syntaxFuncLabel(fd),
					File:      relFile,
					StartLine: fset.Position(fd.Pos()).Line,
					EndLine:   fset.Position(fd.End()).Line,
					Dir:       relDir,
				})
			}
		}
	}
	return out, nil
}

// syntaxFuncLabel renders funcLabel's form from syntax alone: Read,
// (*Cache).Read, (Line).IsZero.
func syntaxFuncLabel(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	return "(" + recvTypeText(fd.Recv.List[0].Type) + ")." + fd.Name.Name
}

func recvTypeText(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.StarExpr:
		return "*" + recvTypeText(x.X)
	case *ast.IndexExpr: // generic receiver Cache[T]
		return recvTypeText(x.X) + "[" + recvTypeText(x.Index) + "]"
	case *ast.IndexListExpr:
		parts := make([]string, len(x.Indices))
		for i, ix := range x.Indices {
			parts[i] = recvTypeText(ix)
		}
		return recvTypeText(x.X) + "[" + strings.Join(parts, ", ") + "]"
	}
	return "recv"
}

// HotPackageDirs returns the sorted, deduplicated module-relative
// package directories containing hot functions.
func HotPackageDirs(funcs []HotFunc) []string {
	seen := map[string]bool{}
	var out []string
	for _, f := range funcs {
		if !seen[f.Dir] {
			seen[f.Dir] = true
			out = append(out, f.Dir)
		}
	}
	sort.Strings(out)
	return out
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
// chatter, and returns them sorted by file, line, column.
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
			// The compiler prints root-package files as ./x.go; ScanHotFuncs
			// records them as x.go.
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
	return sites
}

// AttributeEscapes assigns escape sites to the hot functions whose
// declarations span them. Sites outside any hot function are dropped:
// cold code may allocate freely.
func AttributeEscapes(funcs []HotFunc, sites []EscapeSite) map[string][]EscapeSite {
	out := map[string][]EscapeSite{}
	for _, f := range funcs {
		if _, ok := out[f.Key]; !ok {
			out[f.Key] = nil
		}
		for _, s := range sites {
			if s.File == f.File && s.Line >= f.StartLine && s.Line <= f.EndLine {
				out[f.Key] = append(out[f.Key], s)
			}
		}
	}
	return out
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

// readModulePath extracts the module path from go.mod, mirroring
// NewLoader without constructing a type-checking loader.
func readModulePath(moduleDir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(moduleDir, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("lint: reading go.mod: %w", err)
	}
	for _, ln := range strings.Split(string(data), "\n") {
		ln = strings.TrimSpace(ln)
		if rest, ok := strings.CutPrefix(ln, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s/go.mod", moduleDir)
}
