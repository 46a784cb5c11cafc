// Registry-completeness gate: every registered design must construct by
// name, report the name it registered under, and release a snapshot the
// artifact codec round-trips exactly. `make registry-check` runs these
// checks and the replay-exactness test (replay_test.go); it is part of
// `make ci` so a half-wired design cannot land.
package scheme_test

import (
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/diffenc"
	"repro/internal/harness"
	"repro/internal/line"
	"repro/internal/memory"
	"repro/internal/scheme"
)

// reportOrder pins the registration (= report column) order. Existing
// columns keep their position; new designs append.
var reportOrder = []string{
	"Baseline", "Dedup", "BDI", "Thesaurus", "Ideal", "2x Baseline",
	"CPack", "DISH",
}

func TestRegistryOrderAndHarnessAgreement(t *testing.T) {
	if got := scheme.Names(); !reflect.DeepEqual(got, reportOrder) {
		t.Fatalf("registered schemes %v, want %v", got, reportOrder)
	}
	if !reflect.DeepEqual(harness.Designs, scheme.Names()) {
		t.Fatalf("harness.Designs %v diverged from registry %v",
			harness.Designs, scheme.Names())
	}
}

func TestBuildUnknownDesign(t *testing.T) {
	if _, err := scheme.Build("NoSuchDesign", memory.NewStore()); err == nil {
		t.Fatal("unknown design built without error")
	}
}

// exercise runs a little traffic through c so its release snapshot has
// non-trivial counters to round-trip.
func exercise(c interface {
	Write(line.Addr, line.Line) bool
	Read(line.Addr) (line.Line, bool)
}) {
	for i := 0; i < 64; i++ {
		var l line.Line
		l.SetWord(0, uint64(i)*0x9e3779b97f4a7c15)
		l.SetWord(3, uint64(i))
		c.Write(line.Addr(i)*line.Size, l)
	}
	for i := 0; i < 64; i += 3 {
		c.Read(line.Addr(i) * line.Size)
	}
}

// TestEverySchemeIsComplete is the registry-completeness check: build
// each design by name, confirm it reports its registered name, release
// it, and require the snapshot to round-trip through the artifact codec.
// A snapshot type the codec has no tag for panics in Encode.
func TestEverySchemeIsComplete(t *testing.T) {
	for _, s := range scheme.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			c, err := scheme.Build(s.Name, memory.NewStore())
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			if c.Name() != s.Name {
				t.Fatalf("cache names itself %q, registered as %q", c.Name(), s.Name)
			}
			exercise(c)
			snap := c.Release()
			if snap.Design != s.Name {
				t.Fatalf("snapshot design %q, want %q", snap.Design, s.Name)
			}
			want := &artifact.RunOutput{Snap: snap}
			f, err := artifact.Decode(artifact.Encode(nil, &artifact.File{Run: want}))
			if err != nil {
				t.Fatalf("decode of own encoding failed: %v", err)
			}
			if !artifact.RunOutputEqual(want, f.Run) || !reflect.DeepEqual(want.Snap, f.Run.Snap) {
				t.Fatalf("decode(encode(x)) != x for %T:\n got %+v\nwant %+v", snap.Extra, f.Run.Snap.Extra, snap.Extra)
			}
		})
	}
}

// TestThesaurusSummaryNamesEveryFormat: the Thesaurus summary labels its
// encoding histogram with one name per diffenc format, in index order,
// and prints one count under each.
func TestThesaurusSummaryNamesEveryFormat(t *testing.T) {
	s, ok := scheme.Lookup("Thesaurus")
	if !ok {
		t.Fatal("Thesaurus is not registered")
	}
	c, err := scheme.Build(s.Name, memory.NewStore())
	if err != nil {
		t.Fatal(err)
	}
	exercise(c)
	out := s.Summary(c.Release().Extra)
	m := regexp.MustCompile(`fmt\[([^]]*)\]=\[([^]]*)\]`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("summary %q has no format histogram", out)
	}
	want := make([]string, diffenc.NumFormats)
	for f := range want {
		want[f] = strings.ToLower(diffenc.Format(f).String())
	}
	if names, counts := strings.Split(m[1], ","), strings.Fields(m[2]); !reflect.DeepEqual(names, want) || len(counts) != len(want) {
		t.Fatalf("summary %q: labels %q over %d counts, want %q over %d", out, names, len(counts), want, len(want))
	}
}

// TestSummaryHooksRender: a Summary hook must accept its own design's
// snapshot and render a non-empty line.
func TestSummaryHooksRender(t *testing.T) {
	for _, s := range scheme.All() {
		if s.Summary == nil {
			continue
		}
		c, err := scheme.Build(s.Name, memory.NewStore())
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		exercise(c)
		snap := c.Release()
		if out := s.Summary(snap.Extra); out == "" {
			t.Errorf("%s: Summary rendered nothing", s.Name)
		}
	}
}
