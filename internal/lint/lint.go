// Package lint is thesauruslint: a repository-specific static-analysis
// suite that mechanically enforces the determinism contract documented
// in docs/determinism.md. The whole evaluation pipeline promises
// byte-identical reports for any worker count; these analyzers catch
// the silent-nondeterminism bug classes (wall-clock reads, unordered
// map iteration feeding ordered output, shared-state mutation from
// worker goroutines, ad-hoc random seeds, float reduction order) before
// they can skew a figure. The suite also enforces the resource release
// lifecycle (docs/performance.md): once a cache or store is Released,
// only its returned snapshot may be read.
//
// The suite runs as this package's tests: `go test ./internal/lint`
// lints the whole module against lint.allow (TestRepoIsLintClean) and
// diffs the compiler's hot-path escapes against alloc.budget
// (TestRepoEscapeBudget).
//
// The suite is built only on the standard library (go/parser, go/ast,
// go/types with the source importer); there is no dependency on
// golang.org/x/tools.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding, addressed by position and analyzer.
type Diagnostic struct {
	Analyzer string
	// File is the path relative to the module root (or absolute when
	// outside it).
	File    string
	Line    int
	Col     int
	Message string
}

// String renders the conventional file:line:col: analyzer: message form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Pass hands one analysis unit to an analyzer.
type Pass struct {
	Fset *token.FileSet
	// Path is the import path of the package under analysis; SimPackage
	// tells analyzers whether the determinism contract applies to it.
	Path       string
	SimPackage bool
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info

	analyzer string
	report   func(Diagnostic)
	// loader gives interprocedural analyzers (allocgate) access to the
	// bodies of module-internal packages the unit imports. Nil in
	// hand-built passes; analyzers must tolerate that.
	loader *Loader
}

// InTestFile reports whether pos lies in a _test.go file.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	pp := p.Fset.Position(pos)
	p.report(Diagnostic{
		Analyzer: p.analyzer,
		File:     pp.Filename,
		Line:     pp.Line,
		Col:      pp.Column,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one lint rule.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Analyzers returns the full suite in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		NoDetermImports,
		MapOrder,
		ParMapDiscipline,
		XRandSeed,
		FloatOrder,
		ReleaseUse,
		HotPathPragma,
		AllocGate,
	}
}

// simPackage reports whether the determinism contract applies to the
// import path: the root package and everything under internal/ except
// the lint suite itself. cmd/ and examples/ are interactive front-ends
// where wall-clock reads and environment access are legitimate.
func simPackage(modulePath, path string) bool {
	if path == modulePath {
		return true
	}
	internal := modulePath + "/internal/"
	if !strings.HasPrefix(path, internal) {
		return false
	}
	rest := strings.TrimPrefix(path, internal)
	return rest != "lint" && !strings.HasPrefix(rest, "lint/")
}

// Runner drives the full suite over a module.
type Runner struct {
	Loader *Loader
	Allow  *Allowlist
}

// NewRunner builds a Runner over the module rooted at moduleDir.
func NewRunner(moduleDir string) (*Runner, error) {
	l, err := NewLoader(moduleDir)
	if err != nil {
		return nil, err
	}
	return &Runner{Loader: l}, nil
}

// CheckDirs lints the given package directories and returns the
// diagnostics no allowlist entry covers, sorted by file, line, column,
// analyzer.
func (r *Runner) CheckDirs(dirs []string) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, dir := range dirs {
		path, err := r.importPathOf(dir)
		if err != nil {
			return nil, err
		}
		ds, err := r.checkDir(dir, path)
		if err != nil {
			return nil, err
		}
		diags = append(diags, ds...)
	}
	diags = sortAndDedupe(diags)
	if r.Allow == nil {
		return diags, nil
	}
	kept := diags[:0]
	for _, d := range diags {
		if !r.Allow.Covers(d) {
			kept = append(kept, d)
		}
	}
	return kept, nil
}

// CheckDirAs lints a single directory under a pretend import path; the
// unit-test fixtures use it to exercise sim-package and cmd-package
// treatment from testdata trees.
func (r *Runner) CheckDirAs(dir, asPath string) ([]Diagnostic, error) {
	diags, err := r.checkDir(dir, asPath)
	if err != nil {
		return nil, err
	}
	return sortAndDedupe(diags), nil
}

// sortAndDedupe orders diagnostics by file, line, column, analyzer,
// message and drops exact duplicates. The interprocedural allocgate pass
// can reach the same construct from hot-path roots in several analysis
// units (its messages are unit-independent for exactly this reason), so
// one construct must surface as one finding.
func sortAndDedupe(diags []Diagnostic) []Diagnostic {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	out := diags[:0]
	for i, d := range diags {
		if i > 0 {
			p := diags[i-1]
			if d.File == p.File && d.Line == p.Line && d.Col == p.Col &&
				d.Analyzer == p.Analyzer && d.Message == p.Message {
				continue
			}
		}
		out = append(out, d)
	}
	return out
}

func (r *Runner) checkDir(dir, asPath string) ([]Diagnostic, error) {
	units, err := r.Loader.LoadDir(dir, asPath)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	for _, u := range units {
		for _, a := range Analyzers() {
			pass := &Pass{
				Fset:       r.Loader.Fset,
				Path:       u.Path,
				SimPackage: simPackage(r.Loader.ModulePath, u.Path),
				Files:      u.Files,
				Pkg:        u.Pkg,
				Info:       u.Info,
				analyzer:   a.Name,
				loader:     r.Loader,
			}
			pass.report = func(d Diagnostic) {
				if rp, err := filepath.Rel(r.Loader.ModuleDir, d.File); err == nil && !strings.HasPrefix(rp, "..") {
					d.File = filepath.ToSlash(rp)
				}
				diags = append(diags, d)
			}
			a.Run(pass)
		}
	}
	return diags, nil
}

// importPathOf maps a module subdirectory to its import path.
func (r *Runner) importPathOf(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(r.Loader.ModuleDir, abs)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return r.Loader.ModulePath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, r.Loader.ModuleDir)
	}
	return r.Loader.ModulePath + "/" + filepath.ToSlash(rel), nil
}
