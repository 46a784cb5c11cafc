package lint

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestParseEscapes(t *testing.T) {
	out := strings.Join([]string{
		"# repro/internal/foo",
		"internal/foo/foo.go:12:6: can inline Helper",
		"internal/foo/foo.go:30:13: make([]byte, n) escapes to heap",
		"internal/foo/foo.go:9:2: moved to heap: buf",
		"internal/foo/foo.go:30:13: make([]byte, n) escapes to heap", // a second instantiation
		"<autogenerated>:1: make([]byte, n) escapes to heap",
		"internal/foo/foo.go:30:13: leaking param: p",
		"not a diagnostic line",
		"internal/foo/foo.go:bad:1: x escapes to heap",
		"# repro",
		"./repro.go:7:2: moved to heap: x",
		"", // blank
	}, "\n")
	got := parseEscapes(out)
	want := []EscapeSite{
		{File: "internal/foo/foo.go", Line: 9, Col: 2, Msg: "moved to heap: buf"},
		{File: "internal/foo/foo.go", Line: 30, Col: 13, Msg: "make([]byte, n) escapes to heap"},
		{File: "repro.go", Line: 7, Col: 2, Msg: "moved to heap: x"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parseEscapes = %v, want %v", got, want)
	}
}

// TestAttributeEscapes applies the attribution rules to a hand-built
// closure: a site counts against every root whose closure holds its
// function (a root-package one included: the compiler's ./m.go must
// reach m.go through parseEscapes), except in a panic argument or at the
// ( of a module call, where a variadic call's "... argument" slice still
// counts.
func TestAttributeEscapes(t *testing.T) {
	c := &Closure{
		Roots: map[string][]funcSpan{
			"m/p.Hot":  {{File: "p/p.go", Start: 10, End: 20}, {File: "p/q.go", Start: 5, End: 9}},
			"m/p.Also": {{File: "p/q.go", Start: 5, End: 9}},
			"m/p.Idle": {{File: "p/p.go", Start: 30, End: 40}},
			"m.Root":   {{File: "m.go", Start: 5, End: 9}},
		},
		panicArgs: [][2]srcPos{{{"p/p.go", 12, 8}, {"p/p.go", 13, 2}}},
		moduleCalls: map[srcPos]bool{
			{"p/p.go", 15, 6}: true,
			{"p/p.go", 16, 6}: true,
		},
	}
	sites := []EscapeSite{
		{File: "p/p.go", Line: 11, Col: 3, Msg: "make([]byte, n) escapes to heap"},
		{File: "p/p.go", Line: 12, Col: 20, Msg: "in a panic argument"},
		{File: "p/p.go", Line: 13, Col: 1, Msg: "in a panic argument, on its last line"},
		{File: "p/p.go", Line: 15, Col: 6, Msg: "an inlined callee's escape"},
		{File: "p/p.go", Line: 16, Col: 6, Msg: "... argument escapes to heap"},
		{File: "p/p.go", Line: 25, Col: 3, Msg: "between functions, dropped"},
		{File: "p/other.go", Line: 15, Col: 3, Msg: "other file, dropped"},
		{File: "p/q.go", Line: 7, Col: 2, Msg: "shared callee"},
	}
	sites = append(sites, parseEscapes("./m.go:7:2: moved to heap: y\n")...)
	got := map[string][]string{}
	for k, ss := range c.Attribute(sites) {
		msgs := []string{}
		for _, s := range ss {
			msgs = append(msgs, s.Msg)
		}
		got[k] = msgs
	}
	want := map[string][]string{
		"m/p.Hot":  {"make([]byte, n) escapes to heap", "... argument escapes to heap", "shared callee"},
		"m/p.Also": {"shared callee"},
		"m/p.Idle": {},
		"m.Root":   {"moved to heap: y"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Attribute = %q, want %q", got, want)
	}
}

func TestBudgetRoundTrip(t *testing.T) {
	attributed := map[string][]EscapeSite{
		"m/p.Hot":       {{File: "p/p.go", Line: 1, Col: 1, Msg: "x escapes to heap"}},
		"m/p.(*T).Cold": nil,
	}
	path := filepath.Join(t.TempDir(), "alloc.budget")
	if err := os.WriteFile(path, FormatBudget(attributed), 0o644); err != nil {
		t.Fatal(err)
	}
	counts, err := ParseBudget(path)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"m/p.Hot": 1, "m/p.(*T).Cold": 0}
	if !reflect.DeepEqual(counts, want) {
		t.Errorf("round trip = %v, want %v", counts, want)
	}
}

func TestParseBudgetRejectsBadEntries(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name    string
		content string
	}{
		{"missing count", "m/p.Hot\n"},
		{"non-numeric count", "m/p.Hot three\n"},
		{"negative count", "m/p.Hot -1\n"},
		{"duplicate entry", "m/p.Hot 0\nm/p.Hot 1\n"},
	}
	for _, c := range cases {
		path := filepath.Join(dir, strings.ReplaceAll(c.name, " ", "_"))
		if err := os.WriteFile(path, []byte(c.content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseBudget(path); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestDiffBudget exercises every failure class: a new escape beyond the
// budget, a stale over-budget entry, a hot function absent from the
// budget, and a budget entry whose function lost its pragma.
func TestDiffBudget(t *testing.T) {
	attributed := map[string][]EscapeSite{
		"m/p.Grew":    {{File: "p/p.go", Line: 5, Col: 2, Msg: "x escapes to heap"}},
		"m/p.Shrank":  nil,
		"m/p.Unknown": nil,
		"m/p.Steady":  {{File: "p/p.go", Line: 9, Col: 2, Msg: "y escapes to heap"}},
	}
	budget := map[string]int{
		"m/p.Grew":     0,
		"m/p.Shrank":   2,
		"m/p.Steady":   1,
		"m/p.Vanished": 0,
	}
	failures := DiffBudget(budget, attributed)
	if len(failures) != 4 {
		t.Fatalf("got %d failures, want 4:\n%s", len(failures), strings.Join(failures, "\n"))
	}
	wantSubstrings := []string{
		"new escape at p/p.go:5:2",
		"m/p.Shrank: budget allows 2",
		"m/p.Unknown is //thesaurus:hotpath but missing from the budget",
		"budget entry m/p.Vanished has no //thesaurus:hotpath function",
	}
	all := strings.Join(failures, "\n")
	for _, sub := range wantSubstrings {
		if !strings.Contains(all, sub) {
			t.Errorf("failures missing %q:\n%s", sub, all)
		}
	}
	if strings.Contains(all, "Steady") {
		t.Errorf("within-budget function reported:\n%s", all)
	}
}

// TestFixtureEscapeBudget pins the attribution rules on
// testdata/src/fixalloc, built with -gcflags=-m: the sites counted
// against each root, then the calls the walk cannot follow, against
// testdata/fixalloc.budget.golden (rewritten under -update).
func TestFixtureEscapeBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the fixture with -gcflags=-m")
	}
	r := testRunner(t)
	const path = "repro/internal/lint/testdata/src/fixalloc"
	c, err := WalkClosure(r.Loader, []string{path})
	if err != nil {
		t.Fatal(err)
	}
	sites, err := CollectEscapes(r.Loader.ModuleDir, c.Dirs)
	if err != nil {
		t.Fatal(err)
	}
	attributed := c.Attribute(sites)
	roots := make([]string, 0, len(attributed))
	for k := range attributed {
		roots = append(roots, k)
	}
	sort.Strings(roots)
	var b strings.Builder
	for _, k := range roots {
		fmt.Fprintf(&b, "%s %d\n", k, len(attributed[k]))
		for _, s := range attributed[k] {
			fmt.Fprintf(&b, "\t%s\n", s)
		}
	}
	for _, u := range c.Unfollowable {
		fmt.Fprintln(&b, u)
	}
	got := strings.NewReplacer(path+".", "", "internal/lint/testdata/src/fixalloc/", "").Replace(b.String())

	golden := filepath.Join("testdata", "fixalloc.budget.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("escape budget differs from %s\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

// TestRepoEscapeBudget is the allocation gate: the committed alloc.budget
// must exactly match what the compiler proves about the closures of the
// tree's hot-path roots, and every call in those closures must name its
// callee. With -update it rewrites alloc.budget from the tree instead
// (`make alloc-budget`).
func TestRepoEscapeBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("rebuilds the hot closure's packages with -gcflags=-m")
	}
	r := testRunner(t)
	dirs, err := ModuleDirs(r.Loader.ModuleDir)
	if err != nil {
		t.Fatal(err)
	}
	// Roots live in simulation packages only (hotpath-pragma).
	var paths []string
	for _, dir := range dirs {
		path, err := r.importPathOf(dir)
		if err != nil {
			t.Fatal(err)
		}
		if simPackage(r.Loader.ModulePath, path) {
			paths = append(paths, path)
		}
	}
	c, err := WalkClosure(r.Loader, paths)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Roots) == 0 {
		t.Fatal("no //thesaurus:hotpath functions in the tree")
	}
	for _, u := range c.Unfollowable {
		t.Error(u)
	}
	sites, err := CollectEscapes(r.Loader.ModuleDir, c.Dirs)
	if err != nil {
		t.Fatal(err)
	}
	attributed := c.Attribute(sites)
	path := filepath.Join(r.Loader.ModuleDir, "alloc.budget")
	if *update {
		if err := os.WriteFile(path, FormatBudget(attributed), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	budget, err := ParseBudget(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range DiffBudget(budget, attributed) {
		t.Error(f)
	}
}
