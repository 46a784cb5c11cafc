package main

import (
	"fmt"
	"strings"
	"testing"
)

// fixtureRow is one row's samples, one per run.
type fixtureRow struct {
	name   string
	ns     []float64
	allocs float64
}

// benchOutput renders rows as the concatenated output of len(ns) runs of
// `go test -bench`, headers and trailers included.
func benchOutput(rows []fixtureRow) string {
	var b strings.Builder
	for run := range rows[0].ns {
		b.WriteString("goos: linux\ngoarch: amd64\npkg: repro\ncpu: Intel(R) Xeon(R) Processor\n")
		for _, r := range rows {
			fmt.Fprintf(&b, "BenchmarkHotPath/%-40s\t 1000000\t %10.2f ns/op\t 442.61 MB/s\t 0 B/op\t %g allocs/op\n",
				r.name, r.ns[run], r.allocs)
		}
		b.WriteString("PASS\n")
	}
	return b.String()
}

// baseRows has one row of every class, with ten samples of realistic
// spread each.
func baseRows() []fixtureRow {
	spread := []float64{1.00, 1.03, 0.98, 1.01, 0.97, 1.02, 0.99, 1.04, 0.96, 1.00}
	row := func(name string, ns, allocs float64) fixtureRow {
		r := fixtureRow{name: name, allocs: allocs}
		for _, s := range spread {
			r.ns = append(r.ns, ns*s)
		}
		return r
	}
	return []fixtureRow{
		row("kernel/lsh_fingerprint", 144.6, 0),
		row("kernel/diffenc_roundtrip", 28.0, 0),
		row("hot-path/thesaurus_read_hit_1mb", 53.9, 0),
		row("hot-path/basetable_pooled_cycle_2p20", 74.1, 0),
		row("lifecycle/thesaurus_new_release", 53607.9, 24),
		row("artifact/artifact_load_runoutput", 1570.6, 9),
		row("transport/netq_task_roundtrip", 44936.6, 52),
	}
}

// judgeFixture compares base against change through the parser.
func judgeFixture(t *testing.T, base, change []fixtureRow) (map[string]string, []string) {
	t.Helper()
	b, err := parse(strings.NewReader(benchOutput(base)))
	if err != nil {
		t.Fatal(err)
	}
	c, err := parse(strings.NewReader(benchOutput(change)))
	if err != nil {
		t.Fatal(err)
	}
	rows, failed := compare(b, c)
	verdicts := map[string]string{}
	for _, r := range rows {
		verdicts[r.name] = r.verdict
	}
	return verdicts, failed
}

// edit returns a deep copy of rows with f applied to the named row.
func edit(rows []fixtureRow, name string, f func(*fixtureRow)) []fixtureRow {
	out := make([]fixtureRow, len(rows))
	for i, r := range rows {
		r.ns = append([]float64(nil), r.ns...)
		if r.name == name {
			f(&r)
		}
		out[i] = r
	}
	return out
}

func TestIdenticalSamplesPass(t *testing.T) {
	verdicts, failed := judgeFixture(t, baseRows(), baseRows())
	if len(failed) != 0 {
		t.Fatalf("identical samples failed: %v", failed)
	}
	if len(verdicts) != len(baseRows()) {
		t.Fatalf("%d rows judged, want %d", len(verdicts), len(baseRows()))
	}
	if slower, pairs := slowerPairs(baseRows()[0].ns, baseRows()[0].ns); slower != 0 || pairs != 10 {
		t.Errorf("identical samples: slower in %d of %d pairs, want 0 of 10 (ties count for neither)", slower, pairs)
	}
	for _, r := range baseRows() {
		want := "record"
		if strings.HasPrefix(r.name, "kernel/") || strings.HasPrefix(r.name, "hot-path/") {
			want = "ok"
		}
		if v := verdicts[r.name]; v != want {
			t.Errorf("%s: verdict %q, want %q", r.name, v, want)
		}
	}
}

// TestIdenticalBinaryNoiseNeverFails replays the spread two copies of one
// binary showed in alternating pairs on a shared host: pair ratios from
// 0.70 to 1.28, and a row whose median moved 1.22x, which a median-only
// gate would fail.
func TestIdenticalBinaryNoiseNeverFails(t *testing.T) {
	for _, ratios := range [][]float64{
		{0.70, 1.22, 1.25, 1.28},
		{1.28, 0.70, 1.22, 1.26, 1.24, 0.95, 1.27, 1.21, 0.85, 1.25},
	} {
		base := baseRows()
		for i := range base {
			base[i].ns = base[i].ns[:len(ratios)]
		}
		change := edit(base, "kernel/diffenc_roundtrip", func(r *fixtureRow) {
			for i := range r.ns {
				r.ns[i] *= ratios[i]
			}
		})
		// Every other row drifts too, within the same band.
		for i := range change {
			if change[i].name != "kernel/diffenc_roundtrip" {
				for j := range change[i].ns {
					change[i].ns[j] *= ratios[(i+j)%len(ratios)]
				}
			}
		}
		verdicts, failed := judgeFixture(t, base, change)
		if len(failed) != 0 {
			t.Errorf("%d pairs of noise failed: %v", len(ratios), failed)
		}
		if v := verdicts["kernel/diffenc_roundtrip"]; v != "unresolved" {
			t.Errorf("%d pairs: diffenc_roundtrip verdict %q, want unresolved", len(ratios), v)
		}
	}
}

// TestUniformSlowdown: a row slower in every pair, by more than the base's
// spread, fails above 15% and passes below it.
func TestUniformSlowdown(t *testing.T) {
	const slow = "hot-path/thesaurus_read_hit_1mb"
	for _, c := range []struct {
		factor  float64
		verdict string
	}{{1.10, "ok"}, {1.20, "REGRESSION"}} {
		change := edit(baseRows(), slow, func(r *fixtureRow) {
			for i := range r.ns {
				r.ns[i] *= c.factor
			}
		})
		verdicts, failed := judgeFixture(t, baseRows(), change)
		if verdicts[slow] != c.verdict {
			t.Errorf("x%.2f: verdict %q, want %q", c.factor, verdicts[slow], c.verdict)
		}
		if c.verdict == "REGRESSION" && (len(failed) != 1 || !strings.HasPrefix(failed[0], slow+":")) {
			t.Errorf("x%.2f: failures %v, want one naming %s", c.factor, failed, slow)
		}
	}
}

// TestSlowdownWithinBaseSpreadIsUnresolved: a row slower in every pair
// still does not fail while the gap is inside the base's own spread.
func TestSlowdownWithinBaseSpreadIsUnresolved(t *testing.T) {
	const row = "kernel/bdi_compress"
	base := []fixtureRow{{name: row, ns: []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}}}
	change := edit(base, row, func(r *fixtureRow) {
		for i := range r.ns {
			r.ns[i] *= 1.20
		}
	})
	verdicts, failed := judgeFixture(t, base, change)
	if len(failed) != 0 || verdicts[row] != "unresolved" {
		t.Fatalf("verdict %q, failures %v; want unresolved and none", verdicts[row], failed)
	}
}

func TestAllocGrowthFails(t *testing.T) {
	const row = "kernel/lsh_fingerprint"
	change := edit(baseRows(), row, func(r *fixtureRow) { r.allocs = 1 })
	_, failed := judgeFixture(t, baseRows(), change)
	if len(failed) != 1 || !strings.HasPrefix(failed[0], row+": allocs/op") {
		t.Fatalf("failures %v, want one naming %s's allocs/op", failed, row)
	}
}

func TestMissingGatedRowFails(t *testing.T) {
	const gone = "hot-path/basetable_pooled_cycle_2p20"
	var change []fixtureRow
	for _, r := range baseRows() {
		if r.name != gone {
			change = append(change, r)
		}
	}
	_, failed := judgeFixture(t, baseRows(), change)
	if len(failed) != 1 || !strings.HasPrefix(failed[0], gone+": gated row missing") {
		t.Fatalf("failures %v, want one naming %s as missing", failed, gone)
	}
}

// TestUngatedClassesNeverFail: lifecycle, artifact and transport rows are
// a record only; slower, allocating more or gone, they print and pass.
func TestUngatedClassesNeverFail(t *testing.T) {
	var change []fixtureRow
	for _, r := range baseRows() {
		switch {
		case strings.HasPrefix(r.name, "transport/"):
			continue
		case strings.HasPrefix(r.name, "lifecycle/"), strings.HasPrefix(r.name, "artifact/"):
			r = edit([]fixtureRow{r}, r.name, func(r *fixtureRow) {
				for i := range r.ns {
					r.ns[i] *= 2
				}
				r.allocs += 10
			})[0]
		}
		change = append(change, r)
	}
	verdicts, failed := judgeFixture(t, baseRows(), change)
	if len(failed) != 0 {
		t.Fatalf("ungated rows failed: %v", failed)
	}
	if v := verdicts["transport/netq_task_roundtrip"]; v != "missing" {
		t.Errorf("missing transport row: verdict %q, want missing", v)
	}
}
