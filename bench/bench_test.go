package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	// measureWrites re-executes this binary as the thesaurus-writes child.
	if os.Getenv(childEnv) != "" {
		os.Exit(writesChildMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

func testSpec(t *testing.T) (string, *spec) {
	t.Helper()
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := readSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	return root, sp
}

// TestSpecMatchesCode pins BENCHMARK.json to the workloads and metrics the
// code emits.
func TestSpecMatchesCode(t *testing.T) {
	_, sp := testSpec(t)
	wls := workloads(fullScale)
	if len(sp.Workloads) != len(wls) {
		t.Fatalf("BENCHMARK.json has %d workloads, code %d", len(sp.Workloads), len(wls))
	}
	for i, w := range wls {
		if sp.Workloads[i].Name != w.name || sp.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, code %q: %q", i, sp.Workloads[i], w.name, w.why)
		}
	}
	for _, c := range []struct {
		kind       string
		spec, code []metricDef
	}{{"end_to_end", sp.EndToEnd, endToEnd}, {"per_layer", sp.PerLayer, perLayer()}} {
		if len(c.spec) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, code %d", c.kind, len(c.spec), len(c.code))
			continue
		}
		for i := range c.code {
			if c.spec[i] != c.code[i] {
				t.Errorf("%s %d: BENCHMARK.json %+v, code %+v", c.kind, i, c.spec[i], c.code[i])
			}
		}
	}
	var names []string
	for _, s := range slugs {
		names = append(names, s.design)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloads(fullScale)[0].designs, ","); got != want {
		t.Errorf("slugs cover designs %s, registry has %s", got, want)
	}
}

// TestSmoke runs every workload at smoke size, untraced and traced, and
// checks the emitted metrics against BENCHMARK.json, the trace files, and
// that the private temp root is gone afterwards.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/thesaurus and runs every workload")
	}
	root, sp := testSpec(t)
	tmp, traces := t.TempDir(), t.TempDir()
	for _, traced := range []bool{false, true} {
		defs := sp.EndToEnd
		if traced {
			defs = sp.PerLayer
		}
		outPath := filepath.Join(traces, "results.json")
		var stdout bytes.Buffer
		o := options{seed: defaultSeed, trace: traced, traceDir: traces, out: outPath, smoke: true, tmpParent: tmp}
		if err := runBench(context.Background(), root, o, &stdout); err != nil {
			t.Fatalf("trace=%v: %v\n%s", traced, err, stdout.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var v verdict
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &v); err != nil {
			t.Fatalf("trace=%v: last line: %v", traced, err)
		}
		if !v.Correct || v.Failed != 0 || v.Attempted == 0 {
			t.Errorf("trace=%v: correct=%v attempted=%d failed=%d", traced, v.Correct, v.Attempted, v.Failed)
		}
		checkMetrics(t, "verdict", defs, len(v.Metrics), func(name string) (string, bool) {
			m, ok := v.Metrics[name]
			return m.Unit, ok
		})
		var doc resultsDoc
		data, err := os.ReadFile(outPath)
		if err == nil {
			err = json.Unmarshal(data, &doc)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range sp.Workloads {
			r := doc.Workloads[w.Name]
			if r == nil {
				t.Errorf("trace=%v: no result for %s", traced, w.Name)
				continue
			}
			checkMetrics(t, w.Name, defs, len(r.Metrics), func(name string) (string, bool) {
				s, ok := r.Metrics[name]
				return s.Unit, ok
			})
			if traced {
				if len(r.CPUShare) == 0 {
					t.Errorf("%s: traced result has no cpu_share", w.Name)
				}
				var tf struct {
					TraceEvents []struct {
						Name string  `json:"name"`
						Ph   string  `json:"ph"`
						Dur  float64 `json:"dur"`
					} `json:"traceEvents"`
				}
				data, err := os.ReadFile(filepath.Join(traces, "trace-"+w.Name+".json"))
				if err == nil {
					err = json.Unmarshal(data, &tf)
				}
				if err != nil || len(tf.TraceEvents) == 0 {
					t.Errorf("%s: trace file: %v, %d events", w.Name, err, len(tf.TraceEvents))
				}
			}
		}
		if left, _ := os.ReadDir(tmp); len(left) != 0 {
			t.Errorf("trace=%v: temp root not removed: %v", traced, left)
		}
	}
}

func checkMetrics(t *testing.T, where string, defs []metricDef, n int, unit func(string) (string, bool)) {
	t.Helper()
	if n != len(defs) {
		t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", where, n, len(defs))
	}
	for _, d := range defs {
		if u, ok := unit(d.Name); !ok || u != d.Unit {
			t.Errorf("%s: metric %s: emitted=%v unit %q, want %q", where, d.Name, ok, u, d.Unit)
		}
	}
}

// TestCancelRemovesTempRoot interrupts a run and checks that it stops and
// leaves nothing behind.
func TestCancelRemovesTempRoot(t *testing.T) {
	if testing.Short() {
		t.Skip("builds cmd/thesaurus")
	}
	root, _ := testSpec(t)
	tmp := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	o := options{workload: "fig13-cold", seed: defaultSeed, seconds: 60, smoke: true, tmpParent: tmp}
	if err := runBench(ctx, root, o, &bytes.Buffer{}); err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if left, _ := os.ReadDir(tmp); len(left) != 0 {
		t.Errorf("temp root not removed: %v", left)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(data, n=4) for each input.
	for _, c := range []struct {
		in       []float64
		p25, p75 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 3}, 0.5, 3.5},
		{[]float64{1, 4, 5}, 1, 5},
		{[]float64{0.125, 0.25, 0.5, 1, 2, 4, 8}, 0.25, 4},
		{[]float64{7}, 7, 7},
	} {
		if p25, p75 := quartiles(c.in); p25 != c.p25 || p75 != c.p75 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.in, p25, p75, c.p25, c.p75)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "wall_s", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "maccess_per_s", Better: "higher", Bound: 0.1}
	tight := func(m float64) summary { return summary{Median: m, P25: m * 0.99, P75: m * 1.01} }
	for _, c := range []struct {
		d    metricDef
		a, b summary
		want string
	}{
		{lower, tight(1), tight(1.05), "within bound"},
		{lower, tight(1), tight(1.2), "worse"},
		{lower, tight(1), tight(0.8), "better"},
		{higher, tight(1), tight(0.8), "worse"},
		{higher, tight(1), tight(1.2), "better"},
		{lower, summary{Median: 1, P25: 0.8, P75: 1.2}, tight(1.5), "unresolved"},
	} {
		if _, got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v, %v) = %q, want %q", c.d.Name, c.a.Median, c.b.Median, got, c.want)
		}
	}
}

// TestCompareDocs checks that -compare counts as worse a workload or
// metric that B lacks and any failure in B, and passes identical runs.
func TestCompareDocs(t *testing.T) {
	_, sp := testSpec(t)
	doc := func(edit func(r *workloadResult)) resultsDoc {
		d := resultsDoc{Schema: resultsSchema, Workloads: map[string]*workloadResult{}}
		for _, w := range sp.Workloads {
			r := newResult()
			r.Attempted = 10
			for _, m := range sp.EndToEnd {
				r.Metrics[m.Name] = summary{Unit: m.Unit, N: 10, Median: 1, P25: 0.999, P75: 1.001, Min: 0.99, Max: 1.01}
			}
			if w.Name == sp.Workloads[0].Name && edit != nil {
				edit(r)
			}
			d.Workloads[w.Name] = r
		}
		return d
	}
	for _, c := range []struct {
		name  string
		edit  func(r *workloadResult)
		worse int
	}{
		{"identical", nil, 0},
		{"metric missing in B", func(r *workloadResult) { delete(r.Metrics, "wall_s") }, 1},
		{"every metric missing in B", func(r *workloadResult) { r.Metrics = map[string]summary{} }, len(sp.EndToEnd)},
		{"failures in B", func(r *workloadResult) { r.Failed, r.FailFrac = 2, 0.2 }, 1},
		{"slower in B", func(r *workloadResult) {
			r.Metrics["wall_s"] = summary{Median: 2, P25: 1.999, P75: 2.001}
		}, 1},
	} {
		a, b := doc(nil), doc(c.edit)
		var out bytes.Buffer
		if got := compareDocs(sp, a, b, &out); got != c.worse {
			t.Errorf("%s: %d worse, want %d\n%s", c.name, got, c.worse, out.String())
		}
	}
	a, b := doc(nil), doc(nil)
	delete(b.Workloads, sp.Workloads[0].Name)
	if got := compareDocs(sp, a, b, io.Discard); got != 1 {
		t.Errorf("workload missing in B: %d worse, want 1", got)
	}
}
