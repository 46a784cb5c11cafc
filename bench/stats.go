package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the CLI sees. On a shared 2-core
// host the medians of ten runs of one workload spread (IQR over median)
// by 7-14% in quiet periods, and by far more while a neighbour contends
// for the CPUs or memory, so a timing bound under 25% would flag the
// host's drift as regressions; setup_s, the median of three set-ups a
// run, shares the widest bound. Peak RSS moves with GC timing (up to
// 5%); cache_mb is deterministic.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "maccess_per_s", Unit: "M/s", Better: "higher", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.20},
	{Name: "cache_mb", Unit: "MiB", Better: "lower", Bound: 0.01},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// slugs name the registered designs in per-layer metric names.
var slugs = []struct{ design, slug string }{
	{"Baseline", "baseline"}, {"Dedup", "dedup"}, {"BDI", "bdi"}, {"Thesaurus", "thesaurus"},
	{"Ideal", "ideal"}, {"2x Baseline", "baseline2x"}, {"CPack", "cpack"}, {"DISH", "dish"},
}

// perLayer are the traced run's metrics, in report order.
func perLayer() []metricDef {
	d := func(name, unit, better string) metricDef { return metricDef{Name: name, Unit: unit, Better: better} }
	defs := []metricDef{
		d("workload.gen_ns_per_access", "ns", "lower"),
		d("sim.record_ns_per_access", "ns", "lower"),
		d("artifact.encode_ns_per_event", "ns", "lower"),
		d("artifact.store_recorded_ms", "ms", "lower"),
		d("artifact.decode_ns_per_event", "ns", "lower"),
		d("artifact.load_recorded_ms", "ms", "lower"),
		d("artifact.load_runoutput_us", "us", "lower"),
		d("artifact.runoutput_kib", "KiB", "lower"),
		d("artifact.hit_ratio", "ratio", "higher"),
	}
	for _, s := range slugs {
		defs = append(defs, d("sim.replay_ns_per_event."+s.slug, "ns", "lower"))
	}
	for _, s := range slugs {
		defs = append(defs, d("sim.replay_share."+s.slug, "ratio", "lower"))
	}
	for _, s := range slugs {
		p := "llc." + s.slug
		defs = append(defs, d(p+".read_hit_ns", "ns", "lower"), d(p+".read_miss_ns", "ns", "lower"),
			d(p+".write_ns", "ns", "lower"), d(p+".read_hit_rate", "ratio", "higher"))
	}
	return append(defs,
		d("thesaurus.insertions", "count", "lower"),
		d("thesaurus.reencodes", "count", "lower"),
		d("thesaurus.raw_due_to_base_miss", "count", "lower"),
		d("thesaurus.data_evictions", "count", "lower"),
		d("thesaurus.compressible_frac", "ratio", "higher"),
		d("sim.llc_events", "count", "lower"),
		d("sim.llc_write_frac", "ratio", "lower"),
		d("harness.parallelism", "ratio", "higher"),
		d("harness.cell_ms_p50", "ms", "lower"),
		d("harness.cell_ms_p90", "ms", "lower"),
		d("harness.cell_ms_max", "ms", "lower"),
		d("sim.replay_sharded_ratio", "ratio", "lower"),
		d("workq.overhead_ms_per_cell", "ms", "lower"),
		d("trace.overhead_frac", "ratio", "lower"),
	)
}

// spec is the part of BENCHMARK.json the benchmark reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

const resultsSchema = "thesaurus-bench/1"

// resultsDoc is what -out writes and -compare reads.
type resultsDoc struct {
	Schema    string                     `json:"schema"`
	Env       provenance                 `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// workloadResult is one workload's measurement.
type workloadResult struct {
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	FailFrac  float64              `json:"fail_frac"`
	Metrics   map[string]summary   `json:"metrics"`
	Samples   map[string][]float64 `json:"samples"`
	// Traced runs only: each layer call's self-time in the workload's own
	// work, per ledger pass, as a share of the untraced cpu_s (median over
	// passes). The shares sum to 1 + trace.overhead_frac.
	CPUShare map[string]float64 `json:"cpu_share,omitempty"`

	hits, misses uint64 // artifact cache activity of the timed invocations
}

func newResult() *workloadResult {
	return &workloadResult{Metrics: map[string]summary{}, Samples: map[string][]float64{}}
}

func (r *workloadResult) add(metric string, v float64) {
	r.Samples[metric] = append(r.Samples[metric], v)
}

func (r *workloadResult) fail(workload string, err error) {
	r.Failed++
	fmt.Fprintf(os.Stderr, "bench: %s: %v\n", workload, err)
}

// summarize fills Metrics from Samples for the given definitions.
func (r *workloadResult) summarize(defs []metricDef) {
	for _, d := range defs {
		if v := r.Samples[d.Name]; len(v) > 0 {
			r.Metrics[d.Name] = summarizeValues(d.Unit, v)
		}
	}
	if r.Attempted > 0 {
		r.FailFrac = float64(r.Failed) / float64(r.Attempted)
	}
}

// summary describes one metric's samples.
type summary struct {
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Median float64 `json:"median"`
	P25    float64 `json:"p25"`
	P75    float64 `json:"p75"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

func summarizeValues(unit string, v []float64) summary {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	p25, p75 := quartiles(s)
	return summary{Unit: unit, N: len(s), Median: median(s), P25: p25, P75: p75, Min: s[0], Max: s[len(s)-1]}
}

// iqrFrac is the distance between the quartiles as a share of the median.
func (s summary) iqrFrac() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.P75 - s.P25) / math.Abs(s.Median)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles of sorted s, by the method of Python's
// statistics.quantiles(s, n=4) (exclusive); one value is its own quartiles.
func quartiles(s []float64) (float64, float64) {
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// print writes one workload's table.
func (r *workloadResult) print(w io.Writer, name string) {
	fmt.Fprintf(w, "\n%s: %d attempted, %d failed, fail_frac %.3g\n", name, r.Attempted, r.Failed, r.FailFrac)
	fmt.Fprintf(w, "  %-34s %-6s %4s %12s %12s %12s %12s %12s\n", "metric", "unit", "n", "median", "p25", "p75", "min", "max")
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer()...) {
		s, ok := r.Metrics[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(w, "  %-34s %-6s %4d %12.6g %12.6g %12.6g %12.6g %12.6g\n", d.Name, d.Unit, s.N, s.Median, s.P25, s.P75, s.Min, s.Max)
	}
}

// compareMain reads two results documents and compares them (compareDocs).
func compareMain(root, pathA, pathB string, w io.Writer) int {
	sp, err := readSpec(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	var docs [2]resultsDoc
	for i, p := range []string{pathA, pathB} {
		data, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(data, &docs[i])
		}
		if err == nil && docs[i].Schema != resultsSchema {
			err = fmt.Errorf("schema %q, want %q", docs[i].Schema, resultsSchema)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", p, err)
			return 2
		}
	}
	if compareDocs(sp, docs[0], docs[1], w) > 0 {
		return 1
	}
	return 0
}

// compareDocs prints, for each workload and end-to-end metric, both
// medians and spreads and a verdict against the metric's bound, and
// returns how many are worse. B is worse where it failed any operation,
// and where it lacks a workload or metric that A has.
func compareDocs(sp *spec, a, b resultsDoc, w io.Writer) int {
	worse := 0
	fmt.Fprintf(w, "%-18s %-14s %12s %7s %12s %7s %8s %6s  %s\n", "workload", "metric", "A median", "A iqr", "B median", "B iqr", "change", "bound", "verdict")
	for _, wl := range sp.Workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ra == nil {
			continue // nothing to compare against
		}
		if rb == nil {
			worse++
			fmt.Fprintf(w, "%-18s %-14s %54s  worse: not measured in B\n", wl.Name, "*", "")
			continue
		}
		v := "within bound"
		if rb.Failed > 0 {
			v = "worse"
			worse++
		}
		fmt.Fprintf(w, "%-18s %-14s %12.6g %7s %12.6g %7s %8s %6s  %s (%d of %d failed in B)\n",
			wl.Name, "fail_frac", ra.FailFrac, "", rb.FailFrac, "", "", "0", v, rb.Failed, rb.Attempted)
		for _, d := range sp.EndToEnd {
			ma, okA := ra.Metrics[d.Name]
			mb, okB := rb.Metrics[d.Name]
			switch {
			case !okA:
				continue
			case !okB:
				worse++
				fmt.Fprintf(w, "%-18s %-14s %12.6g %6.1f%% %35s  worse: not measured in B\n", wl.Name, d.Name, ma.Median, 100*ma.iqrFrac(), "")
				continue
			}
			change, v := judge(d, ma, mb)
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(w, "%-18s %-14s %12.6g %6.1f%% %12.6g %6.1f%% %+7.1f%% %5.0f%%  %s\n",
				wl.Name, d.Name, ma.Median, 100*ma.iqrFrac(), mb.Median, 100*mb.iqrFrac(), 100*change, 100*d.Bound, v)
		}
	}
	if worse > 0 {
		fmt.Fprintf(w, "%d worse beyond their bound\n", worse)
	}
	return worse
}

// judge returns B's relative change against A and the verdict: within
// bound, worse, better, or unresolved when either side's spread exceeds
// the bound.
func judge(d metricDef, a, b summary) (float64, string) {
	if a.Median == 0 {
		return 0, "unresolved"
	}
	change := (b.Median - a.Median) / math.Abs(a.Median)
	worse := change
	if d.Better == "higher" {
		worse = -change
	}
	switch {
	case max(a.iqrFrac(), b.iqrFrac()) > d.Bound:
		return change, "unresolved"
	case worse > d.Bound:
		return change, "worse"
	case worse < -d.Bound:
		return change, "better"
	}
	return change, "within bound"
}
