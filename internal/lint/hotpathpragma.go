package lint

import (
	"go/ast"
)

// HotPathPragma enforces the //thesaurus: pragma grammar itself, so the
// allocation gate never silently ignores a typo. Every directive must be
// a known verb, attached to a function declaration's doc comment, in a
// non-test file of a simulation package; allocok must carry a reason
// (the audit trail for a sanctioned allocation boundary), and one
// function cannot be both a hot-path root and an allocation boundary.
var HotPathPragma = &Analyzer{
	Name: "hotpath-pragma",
	Doc:  "enforce the //thesaurus:hotpath and //thesaurus:allocok pragma grammar",
	Run:  runHotPathPragma,
}

func runHotPathPragma(pass *Pass) {
	for _, f := range pass.Files {
		// Directives attached to function declarations.
		attached := map[*ast.Comment]bool{}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			seen := map[string]bool{}
			for _, p := range funcPragmas(fd) {
				attached[p.Comment] = true
				checkPragmaContext(pass, p)
				switch p.Verb {
				case pragmaHotPath:
					if p.Arg != "" {
						pass.Reportf(p.Comment.Pos(),
							"//thesaurus:hotpath takes no argument (got %q); the escape budget needs no configuration", p.Arg)
					}
				case pragmaAllocOK:
					if p.Arg == "" {
						pass.Reportf(p.Comment.Pos(),
							"//thesaurus:allocok needs a reason: it exempts %s from the allocation gate, and the reason is the audit trail", fd.Name.Name)
					}
				default:
					pass.Reportf(p.Comment.Pos(),
						"unknown pragma //thesaurus:%s; valid pragmas are //thesaurus:hotpath and //thesaurus:allocok <reason>", p.Verb)
					continue
				}
				if seen[p.Verb] {
					pass.Reportf(p.Comment.Pos(),
						"duplicate //thesaurus:%s on %s", p.Verb, fd.Name.Name)
				}
				seen[p.Verb] = true
			}
			if seen[pragmaHotPath] && seen[pragmaAllocOK] {
				pass.Reportf(fd.Pos(),
					"%s is marked both //thesaurus:hotpath and //thesaurus:allocok: a function cannot be a hot-path root and an allocation boundary at once", fd.Name.Name)
			}
		}
		// Directives anywhere else in the file are detached: they look
		// load-bearing but bind to nothing.
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				p, ok := parsePragma(c)
				if !ok || attached[c] {
					continue
				}
				checkPragmaContext(pass, p)
				pass.Reportf(c.Pos(),
					"detached pragma //thesaurus:%s: hot-path pragmas must sit in a function declaration's doc comment", p.Verb)
			}
		}
	}
}

// checkPragmaContext flags pragmas in places the allocation gate never
// reads: test files (test-only roots would gate nothing in production)
// and non-simulation packages (cmd/ front-ends may allocate freely).
func checkPragmaContext(pass *Pass, p pragma) {
	if pass.InTestFile(p.Comment.Pos()) {
		pass.Reportf(p.Comment.Pos(),
			"//thesaurus:%s in a _test.go file: hot-path pragmas declare production hot paths and are ignored in tests; delete it", p.Verb)
	}
	if !pass.SimPackage {
		pass.Reportf(p.Comment.Pos(),
			"//thesaurus:%s outside a simulation package: the allocation gate only applies to internal/ simulation code", p.Verb)
	}
}
