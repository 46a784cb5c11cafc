package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Loader parses and typechecks the packages of one Go module using only
// the standard library: go/parser for syntax and go/types with the
// source importer for semantics. Module-internal import paths are
// resolved against the module directory directly (no `go list`
// invocation), so loading is deterministic and fully offline; all other
// paths fall through to the source importer, which typechecks the
// standard library from $GOROOT/src.
type Loader struct {
	Fset       *token.FileSet
	ModuleDir  string
	ModulePath string

	src  types.ImporterFrom
	pkgs map[string]*types.Package // import path → typechecked (non-test files only)
	// units retains the syntax and type information behind pkgs so the
	// escape budget's closure walk can follow calls into other module
	// packages and read the callee bodies.
	units map[string]*moduleUnit
}

// moduleUnit is the retained load state of one module-internal package as
// imported (non-test files only): enough to resolve a *types.Func from a
// caller in another package to its declaration.
type moduleUnit struct {
	Path  string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// NewLoader builds a Loader for the module rooted at moduleDir (the
// directory containing go.mod).
func NewLoader(moduleDir string) (*Loader, error) {
	modPath, err := readModulePath(moduleDir)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	l := &Loader{
		Fset:       fset,
		ModuleDir:  moduleDir,
		ModulePath: modPath,
		pkgs:       map[string]*types.Package{},
		units:      map[string]*moduleUnit{},
	}
	l.src = importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	return l, nil
}

// readModulePath extracts the module path from moduleDir's go.mod.
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

// FindModuleRoot walks upward from dir to the nearest directory holding
// a go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.ModuleDir, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths are
// typechecked from their module subdirectory; everything else delegates
// to the source importer.
func (l *Loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.inModule(path) {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
		dir := filepath.Join(l.ModuleDir, filepath.FromSlash(rel))
		files, err := l.parseDir(dir, func(name string) bool {
			return !strings.HasSuffix(name, "_test.go")
		})
		if err != nil {
			return nil, err
		}
		pkg, info, err := l.check(path, files)
		if err != nil {
			return nil, err
		}
		l.pkgs[path] = pkg
		l.units[path] = &moduleUnit{Path: path, Files: files, Pkg: pkg, Info: info}
		return pkg, nil
	}
	return l.src.ImportFrom(path, srcDir, mode)
}

// moduleUnit returns the retained load state for a module-internal import
// path, importing it on first use. Returns nil for paths outside the
// module or that fail to load (the caller treats the package as opaque).
func (l *Loader) moduleUnit(path string) *moduleUnit {
	if u, ok := l.units[path]; ok {
		return u
	}
	if !l.inModule(path) {
		return nil
	}
	if _, err := l.ImportFrom(path, l.ModuleDir, 0); err != nil {
		return nil
	}
	return l.units[path]
}

// inModule reports whether path is the module's or one of its packages'.
func (l *Loader) inModule(path string) bool {
	return path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/")
}

// parseDir parses the .go files of dir that pass keep, in sorted name
// order (so positions and any diagnostics are stable run to run).
func (l *Loader) parseDir(dir string, keep func(name string) bool) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_") {
			continue
		}
		if keep != nil && !keep(n) {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	files := make([]*ast.File, len(names))
	for i, n := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files[i] = f
	}
	return files, nil
}

// check typechecks files as the package at path and returns full
// types.Info for analysis.
func (l *Loader) check(path string, files []*ast.File) (*types.Package, *types.Info, error) {
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("lint: typechecking %s: %w", path, err)
	}
	return pkg, info, nil
}

// Unit is one typechecked analysis unit: either a package together with
// its in-package test files, or an external (package foo_test) test
// package.
type Unit struct {
	Path  string // import path of the analyzed package
	Dir   string
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// LoadDir loads the package in dir under the pretend import path asPath
// and returns its analysis units: the base package including in-package
// test files and, when present, the external test package. Test files
// are included so the analyzers see the whole tree; analyzers that
// exempt tests check file names via Pass.InTestFile.
func (l *Loader) LoadDir(dir, asPath string) ([]*Unit, error) {
	all, err := l.parseDir(dir, nil)
	if err != nil {
		return nil, err
	}
	var base, ext []*ast.File
	var pkgName string
	for _, f := range all {
		name := f.Name.Name
		if strings.HasSuffix(name, "_test") {
			ext = append(ext, f)
			continue
		}
		pkgName = name
		base = append(base, f)
	}
	var units []*Unit
	if len(base) > 0 {
		pkg, info, err := l.check(asPath, base)
		if err != nil {
			return nil, err
		}
		units = append(units, &Unit{Path: asPath, Dir: dir, Files: base, Pkg: pkg, Info: info})
	}
	if len(ext) > 0 {
		// The external test package imports the base one; make sure the
		// import cache holds the plain (test-free) variant first.
		if _, err := l.Import(asPath); err != nil && len(base) > 0 {
			return nil, err
		}
		extPath := asPath + "_test"
		if pkgName == "" {
			extPath = asPath // test-only directory
		}
		pkg, info, err := l.check(extPath, ext)
		if err != nil {
			return nil, err
		}
		units = append(units, &Unit{Path: asPath, Dir: dir, Files: ext, Pkg: pkg, Info: info})
	}
	return units, nil
}

// ModuleDirs returns every package directory of the module, skipping
// testdata, hidden, and vendor trees, sorted by path.
func ModuleDirs(moduleDir string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(moduleDir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != moduleDir && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".go") && !strings.HasPrefix(d.Name(), ".") {
			dir := filepath.Dir(p)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	// WalkDir visits files of one directory contiguously, but be safe.
	out := dirs[:0]
	for i, d := range dirs {
		if i == 0 || dirs[i-1] != d {
			out = append(out, d)
		}
	}
	return out, nil
}
