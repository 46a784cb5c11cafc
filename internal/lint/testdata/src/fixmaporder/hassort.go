package fixmaporder

import (
	"fmt"
	"sort"
)

// Labels appends in map order in a file that imports sort, but never
// sorts out: flagged.
func Labels(m map[uint64]string) []string {
	var out []string
	for id, lab := range m {
		out = append(out, fmt.Sprintf("%d:%s", id, lab))
	}
	return out
}

// SortedLabels is the clean counterpart (collect-then-sort): no finding.
func SortedLabels(m map[uint64]string) []string {
	keys := make([]uint64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]string, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}
