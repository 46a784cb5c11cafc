package lint

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseEscapes(t *testing.T) {
	out := strings.Join([]string{
		"# repro/internal/foo",
		"internal/foo/foo.go:12:6: can inline Helper",
		"internal/foo/foo.go:30:13: make([]byte, n) escapes to heap",
		"internal/foo/foo.go:9:2: moved to heap: buf",
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

// TestAttributeEscapes attributes by file and line span, including a
// root-package function: ScanHotFuncs records its file as m.go, and the
// compiler's ./m.go must reach it through parseEscapes.
func TestAttributeEscapes(t *testing.T) {
	funcs := []HotFunc{
		{Key: "m/p.Hot", File: "p/p.go", StartLine: 10, EndLine: 20, Dir: "p"},
		{Key: "m/p.(*T).Cold", File: "p/p.go", StartLine: 30, EndLine: 40, Dir: "p"},
		{Key: "m.Root", File: "m.go", StartLine: 5, EndLine: 9, Dir: "."},
	}
	sites := []EscapeSite{
		{File: "p/p.go", Line: 15, Col: 3, Msg: "x escapes to heap"},
		{File: "p/p.go", Line: 25, Col: 3, Msg: "between functions, dropped"},
		{File: "p/other.go", Line: 15, Col: 3, Msg: "other file, dropped"},
	}
	sites = append(sites, parseEscapes("./m.go:7:2: moved to heap: y\n")...)
	got := AttributeEscapes(funcs, sites)
	if len(got) != 3 {
		t.Fatalf("attributed %d keys, want 3 (zero-escape functions must still appear)", len(got))
	}
	if n := len(got["m/p.Hot"]); n != 1 {
		t.Errorf("m/p.Hot got %d sites, want 1", n)
	}
	if n := len(got["m/p.(*T).Cold"]); n != 0 {
		t.Errorf("m/p.(*T).Cold got %d sites, want 0", n)
	}
	if n := len(got["m.Root"]); n != 1 {
		t.Errorf("m.Root got %d sites, want 1", n)
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

// TestScanHotFuncs runs the syntax-only scan on a synthetic module and
// checks keys, spans, and that test files and non-pragma functions are
// ignored.
func TestScanHotFuncs(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module example/mod\n\ngo 1.21\n")
	write("pkg/pkg.go", `package pkg

type T struct{ n int }

//thesaurus:hotpath
func (t *T) Hot() int {
	return t.n
}

func cold() {}

//thesaurus:hotpath
func Free() {}
`)
	write("pkg/pkg_test.go", `package pkg

//thesaurus:hotpath
func testOnly() {}
`)
	funcs, err := ScanHotFuncs(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(funcs) != 2 {
		t.Fatalf("found %d hot funcs, want 2: %+v", len(funcs), funcs)
	}
	if funcs[0].Key != "example/mod/pkg.(*T).Hot" || funcs[1].Key != "example/mod/pkg.Free" {
		t.Errorf("keys = %s, %s", funcs[0].Key, funcs[1].Key)
	}
	if funcs[0].File != "pkg/pkg.go" || funcs[0].StartLine != 6 || funcs[0].EndLine != 8 {
		t.Errorf("span = %+v", funcs[0])
	}
	if dirs := HotPackageDirs(funcs); len(dirs) != 1 || dirs[0] != "pkg" {
		t.Errorf("HotPackageDirs = %v", dirs)
	}
}

// TestRepoEscapeBudget is the escape gate: the committed alloc.budget
// must exactly match what the compiler proves about the tree's hot
// functions. With -update it rewrites alloc.budget from the tree
// instead (`make alloc-budget`).
func TestRepoEscapeBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("rebuilds hot packages with -gcflags=-m")
	}
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	moduleDir, err := FindModuleRoot(cwd)
	if err != nil {
		t.Fatal(err)
	}
	funcs, err := ScanHotFuncs(moduleDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(funcs) == 0 {
		t.Fatal("no //thesaurus:hotpath functions in the tree")
	}
	sites, err := CollectEscapes(moduleDir, HotPackageDirs(funcs))
	if err != nil {
		t.Fatal(err)
	}
	attributed := AttributeEscapes(funcs, sites)
	path := filepath.Join(moduleDir, "alloc.budget")
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
