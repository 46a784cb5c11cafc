// Package scheme is the compression-scheme registry: the single place a
// cache design plugs into the repository. A design registers once —
// construction by name, the config fragment folded into run content
// keys, and an optional report summary — and the harness, the artifact
// run keys, and the campaign figures all pick it up from here. The
// artifact package persists the release snapshot by its Go type, so a
// design that releases an existing snapshot type (llc.Counters for
// counter-only designs) needs nothing more. Registration order is report
// order: experiment tables emit one column per registered scheme, so new
// schemes append columns and existing columns keep their bytes.
package scheme

import (
	"fmt"

	"repro/internal/llc"
	"repro/internal/memory"
)

// Scheme describes one registered cache design.
type Scheme struct {
	// Name is the design's report name, unique across the registry and
	// equal to what the built cache's Name() returns.
	Name string
	// Build constructs the design over a fresh backing store at its
	// default (paper) configuration.
	Build func(mem *memory.Store) (llc.Cache, error)
	// AppendConfigKey folds the design's default configuration into the
	// run content key, so cached runs never alias across a silent
	// default-config change. Nil for designs whose effective config is
	// already keyed elsewhere (Thesaurus: the harness passes the
	// normalized config into the key explicitly).
	AppendConfigKey func(dst []byte) []byte
	// Summary renders a one-line design-specific report suffix from the
	// release snapshot, or "" when there is nothing to add. Nil means no
	// summary.
	Summary func(x llc.ExtraSnapshot) string
}

// registry state: registration happens in this package's init (see
// builtin.go) and is read-only afterwards, so no locking is needed.
var (
	schemes []Scheme
	byName  = map[string]int{}
)

// Register adds s to the registry. It panics on duplicate names or a
// missing builder — programmer errors caught at init.
func Register(s Scheme) {
	if s.Name == "" || s.Build == nil {
		panic("scheme: Register needs a name and a builder")
	}
	if _, dup := byName[s.Name]; dup {
		panic(fmt.Sprintf("scheme: duplicate design %q", s.Name))
	}
	byName[s.Name] = len(schemes)
	schemes = append(schemes, s)
}

// Names returns the registered design names in registration (report)
// order. The slice is a copy; callers may keep or reorder it.
func Names() []string {
	out := make([]string, len(schemes))
	for i := range schemes {
		out[i] = schemes[i].Name
	}
	return out
}

// Lookup returns the named scheme.
func Lookup(name string) (Scheme, bool) {
	i, ok := byName[name]
	if !ok {
		return Scheme{}, false
	}
	return schemes[i], true
}

// Build constructs the named design over mem at its default
// configuration.
func Build(name string, mem *memory.Store) (llc.Cache, error) {
	s, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("harness: unknown design %q", name)
	}
	return s.Build(mem)
}
