// Package fixmaporder holds maporder violations beyond fixsim's: string,
// int and package-local named key types and a key-only range here, a
// file that imports sort in hassort.go, and a struct key and a map
// operand that is a call in unfixable.go.
package fixmaporder

import "fmt"

// CountsReport appends in map order: string key, value used.
func CountsReport(counts map[string]int) []string {
	var out []string
	for name, n := range counts {
		out = append(out, fmt.Sprintf("%s=%d", name, n))
	}
	return out
}

// Widths concatenates in map order: int key, key-only range.
func Widths(widths map[int]bool) string {
	s := ""
	for w := range widths {
		s += fmt.Sprint(w)
	}
	return s
}

// ID is a package-local ordered key type.
type ID uint32

// IDs appends in map order: named key type.
func IDs(m map[ID]string) []ID {
	var out []ID
	for id := range m {
		out = append(out, id)
	}
	return out
}
