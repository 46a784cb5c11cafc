package fixmaporder

// Pair is an unordered (struct) key type.
type Pair struct{ A, B int }

// PairSums appends in map order over a struct key type, which has no <
// to sort by: flagged.
func PairSums(m map[Pair]int) []int {
	var out []int
	for p, v := range m {
		out = append(out, p.A+v)
	}
	return out
}

// FromCall appends in map order over a map that a call returns:
// flagged.
func FromCall() []string {
	var out []string
	for k := range load() {
		out = append(out, k)
	}
	return out
}

func load() map[string]bool { return nil }
