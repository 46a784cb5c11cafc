package lint

import (
	"go/ast"
	"strings"
)

// Hot-path pragmas (docs/static-analysis.md). The grammar is a directive
// comment in a function's doc group:
//
//	//thesaurus:hotpath
//	//thesaurus:allocok <reason>
//
// hotpath declares the function a hot-path root: the escape budget
// (escape.go) counts the compiler's proven escapes anywhere in the
// call-graph closure of every root. allocok marks a function as a
// sanctioned allocation boundary (cold refill paths, amortized pool
// growth): a closure stops at it, so nothing inside it is counted; the
// reason is mandatory and is the audit trail.
const (
	pragmaPrefix  = "//thesaurus:"
	pragmaHotPath = "hotpath"
	pragmaAllocOK = "allocok"
)

// pragma is one parsed //thesaurus: directive.
type pragma struct {
	Verb    string // "hotpath", "allocok", or an unknown verb
	Arg     string // text after the verb, space-trimmed
	Comment *ast.Comment
}

// parsePragma extracts the directive from a single comment, or ok=false
// when the comment is not a //thesaurus: directive at all.
func parsePragma(c *ast.Comment) (pragma, bool) {
	rest, found := strings.CutPrefix(c.Text, pragmaPrefix)
	if !found {
		return pragma{}, false
	}
	verb, arg, _ := strings.Cut(rest, " ")
	return pragma{Verb: strings.TrimSpace(verb), Arg: strings.TrimSpace(arg), Comment: c}, true
}

// funcPragmas returns the //thesaurus: directives in decl's doc group, in
// source order.
func funcPragmas(decl *ast.FuncDecl) []pragma {
	if decl.Doc == nil {
		return nil
	}
	var out []pragma
	for _, c := range decl.Doc.List {
		if p, ok := parsePragma(c); ok {
			out = append(out, p)
		}
	}
	return out
}

// hasPragmaVerb reports whether decl carries the given well-formed verb.
func hasPragmaVerb(decl *ast.FuncDecl, verb string) bool {
	for _, p := range funcPragmas(decl) {
		if p.Verb == verb {
			return true
		}
	}
	return false
}
