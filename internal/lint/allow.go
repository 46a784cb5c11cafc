package lint

import (
	"fmt"
	"os"
	"strings"
)

// AllowEntry is one audited exception: it suppresses all findings of
// one analyzer in one file and must carry a written justification.
type AllowEntry struct {
	Analyzer      string
	File          string // module-relative, forward slashes
	Justification string
	Line          int // line in the allowlist file, for error messages
	used          bool
}

// Allowlist is a parsed allowlist file. The format is line-oriented:
//
//	# comment
//	<analyzer> <module-relative-file.go> <justification…>
//
// The justification is mandatory — an exception nobody can explain is
// not an exception, it is a latent bug — and stale entries (covering no
// current finding) are reported so the list cannot rot. hotpath-pragma
// takes no entries: the allocation gate's one exemption is a
// //thesaurus:allocok <reason> pragma in the code.
type Allowlist struct {
	Entries []*AllowEntry
}

// ParseAllowlist reads and validates the allowlist at path.
func ParseAllowlist(path string) (*Allowlist, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	al := &Allowlist{}
	known := map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	for i, ln := range strings.Split(string(data), "\n") {
		line := strings.TrimSpace(ln)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			return nil, fmt.Errorf("%s:%d: allowlist entry needs `<analyzer> <file> <justification>`, got %q",
				path, i+1, line)
		}
		if !known[fields[0]] {
			return nil, fmt.Errorf("%s:%d: unknown analyzer %q", path, i+1, fields[0])
		}
		if fields[0] == HotPathPragma.Name {
			return nil, fmt.Errorf("%s:%d: %s findings cannot be allowlisted; the allocation gate's one exemption is //thesaurus:allocok <reason> in the code",
				path, i+1, fields[0])
		}
		al.Entries = append(al.Entries, &AllowEntry{
			Analyzer:      fields[0],
			File:          fields[1],
			Justification: strings.Join(fields[2:], " "),
			Line:          i + 1,
		})
	}
	return al, nil
}

// Covers reports whether an entry suppresses d, marking the entry used.
func (al *Allowlist) Covers(d Diagnostic) bool {
	for _, e := range al.Entries {
		if e.Analyzer == d.Analyzer && e.File == d.File {
			e.used = true
			return true
		}
	}
	return false
}

// Stale returns the entries that suppressed nothing in the last run —
// candidates for deletion, reported as errors so the list stays honest.
func (al *Allowlist) Stale() []*AllowEntry {
	var out []*AllowEntry
	for _, e := range al.Entries {
		if !e.used {
			out = append(out, e)
		}
	}
	return out
}
