package lint

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

func testRunner(t *testing.T) *Runner {
	t.Helper()
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	root, err := FindModuleRoot(cwd)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(root)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// checkFixture lints testdata/src/<name> under asPath and returns the
// diagnostics rendered with basenames (stable against tree moves).
func checkFixture(t *testing.T, r *Runner, name, asPath string) []string {
	t.Helper()
	diags, err := r.CheckDirAs(filepath.Join("testdata", "src", name), asPath)
	if err != nil {
		t.Fatalf("fixture %s: %v", name, err)
	}
	out := make([]string, 0, len(diags))
	for _, d := range diags {
		d.File = filepath.Base(d.File)
		out = append(out, d.String())
	}
	return out
}

// goldenFixture lints testdata/src/<name> as repro/internal/<name> and
// requires its diagnostics to equal testdata/<name>.golden (rewritten
// under -update). It returns the diagnostic lines.
func goldenFixture(t *testing.T, r *Runner, name string) []string {
	t.Helper()
	lines := checkFixture(t, r, name, "repro/internal/"+name)
	got := strings.Join(lines, "\n") + "\n"

	golden := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run `go test -run Golden -update ./internal/lint` to create)", err)
	}
	if got != string(want) {
		t.Errorf("diagnostics differ from %s\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
	return lines
}

// TestFixtureGolden pins the exact diagnostics — analyzer, position, and
// wording — the suite produces on each violation fixture. fixsim pairs
// every violation with a clean counterpart (collect-then-sort,
// write-by-index, config-derived seeds), so an analyzer that overreaches
// shows up here as an unexpected extra line. fixmaporder and fixparmap
// hold more shapes of the maporder and parmap-discipline violations:
// struct and named key types, a map operand that is a call, a file that
// already imports sort, and worker closures with and without an index
// parameter, with two appends, and over a slice with no capacity.
// fixalloc, the escape budget's fixture, holds the full hotpath-pragma
// grammar; no other analyzer may fire there.
func TestFixtureGolden(t *testing.T) {
	r := testRunner(t)
	var simLines []string
	for _, name := range []string{"fixsim", "fixmaporder", "fixparmap", "fixalloc"} {
		t.Run(name, func(t *testing.T) {
			lines := goldenFixture(t, r, name)
			if name == "fixsim" {
				simLines = lines
			}
		})
	}

	// Every analyzer in the suite must both catch something in the
	// violation fixture and stay quiet on its clean counterparts — the
	// golden encodes the latter by omission, the former is asserted here.
	for _, a := range Analyzers() {
		found := false
		for _, ln := range simLines {
			if strings.Contains(ln, ": "+a.Name+": ") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("analyzer %s caught nothing in the violation fixture", a.Name)
		}
	}
}

// TestFixtureClean: a package written in the sanctioned style produces
// zero diagnostics.
func TestFixtureClean(t *testing.T) {
	r := testRunner(t)
	if lines := checkFixture(t, r, "fixclean", "repro/internal/fixclean"); len(lines) != 0 {
		t.Errorf("clean fixture produced diagnostics:\n%s", strings.Join(lines, "\n"))
	}
}

// TestFixtureCmdExempt: the same nondeterministic inputs that fail a
// simulation package are legitimate in a front-end under cmd/.
func TestFixtureCmdExempt(t *testing.T) {
	r := testRunner(t)
	if lines := checkFixture(t, r, "fixcmd", "repro/cmd/fixcmd"); len(lines) != 0 {
		t.Errorf("cmd fixture produced diagnostics:\n%s", strings.Join(lines, "\n"))
	}
}

func TestSimPackage(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"repro", true},
		{"repro/internal/sim", true},
		{"repro/internal/lint", false},
		{"repro/internal/lint/sub", false},
		{"repro/cmd/thesaurus", false},
		{"repro/examples/demo", false},
		{"other/internal/sim", false},
	}
	for _, c := range cases {
		if got := simPackage("repro", c.path); got != c.want {
			t.Errorf("simPackage(repro, %s) = %v, want %v", c.path, got, c.want)
		}
	}
}

func TestAllowlist(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "lint.allow")
	content := "# comment\n\nmaporder internal/foo/foo.go iteration audited, order provably irrelevant\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	al, err := ParseAllowlist(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(al.Entries) != 1 {
		t.Fatalf("%d entries", len(al.Entries))
	}
	covered := Diagnostic{Analyzer: "maporder", File: "internal/foo/foo.go"}
	other := Diagnostic{Analyzer: "maporder", File: "internal/bar/bar.go"}
	if al.Covers(other) {
		t.Error("covered an unrelated file")
	}
	if len(al.Stale()) != 1 {
		t.Error("unused entry not reported stale")
	}
	if !al.Covers(covered) {
		t.Error("did not cover the listed file")
	}
	if len(al.Stale()) != 0 {
		t.Error("used entry still reported stale")
	}
}

func TestAllowlistRejectsBadEntries(t *testing.T) {
	dir := t.TempDir()
	cases := []struct {
		name    string
		content string
	}{
		{"missing justification", "maporder internal/foo/foo.go\n"},
		{"unknown analyzer", "typo internal/foo/foo.go some reason here\n"},
		// allocgate is no analyzer: the escape budget is the allocation
		// gate, and its one exemption is //thesaurus:allocok in the code.
		{"allocgate entry", "allocgate internal/line/line.go some reason here\n"},
		{"hotpath-pragma entry", "hotpath-pragma internal/line/line.go some reason here\n"},
	}
	for _, c := range cases {
		path := filepath.Join(dir, strings.ReplaceAll(c.name, " ", "_"))
		if err := os.WriteFile(path, []byte(c.content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ParseAllowlist(path); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestRepoIsLintClean runs the suite over the whole module with the
// checked-in allowlist: the tree itself is the ultimate fixture, and
// this test is the lint gate of `go test ./...` and so of `make ci`.
func TestRepoIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	r := testRunner(t)
	allowPath := filepath.Join(r.Loader.ModuleDir, "lint.allow")
	if _, err := os.Stat(allowPath); err == nil {
		al, err := ParseAllowlist(allowPath)
		if err != nil {
			t.Fatal(err)
		}
		r.Allow = al
	}
	dirs, err := ModuleDirs(r.Loader.ModuleDir)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := r.CheckDirs(dirs)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if r.Allow != nil {
		for _, e := range r.Allow.Stale() {
			t.Errorf("stale allowlist entry at line %d: %s %s", e.Line, e.Analyzer, e.File)
		}
	}
}
