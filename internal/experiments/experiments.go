// Package experiments regenerates every table and figure of the paper's
// evaluation (the per-experiment index lives in DESIGN.md). Each
// experiment returns structured results plus a rendered text report, so
// the cmd/thesaurus CLI, the test suite, and the benchmark harness all
// drive the same code.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cluster"
	"repro/internal/energy"
	"repro/internal/harness"
	"repro/internal/ideal"
	"repro/internal/line"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/uncomp"
	"repro/internal/workload"
)

// Options scopes an experiment run.
type Options struct {
	// Accesses per profile (trace length).
	Accesses int
	// Profiles to evaluate; nil means all 22.
	Profiles []string
	// Workers bounds the per-profile concurrency of the experiment
	// loops (0 = GOMAXPROCS, 1 = serial). Reports are byte-identical
	// for any value; see the determinism tests.
	Workers int
}

// Default returns full-scale options.
func Default() Options {
	return Options{Accesses: harness.DefaultAccesses}
}

// Quick returns reduced-scale options for tests and smoke runs.
func Quick() Options {
	return Options{Accesses: 150_000}
}

func (o Options) profiles() []string {
	if len(o.Profiles) > 0 {
		return o.Profiles
	}
	return workload.Names()
}

func (o Options) run() harness.RunOptions {
	ro := harness.DefaultRunOptions()
	ro.Accesses = o.Accesses
	ro.Workers = o.Workers
	return ro
}

// snapshot returns the resident lines of a conventional-LLC simulation of
// the profile: the "LLC snapshot" the motivation experiments analyze. The
// lines come from the released cache's snapshot, already in ascending
// address order.
func snapshot(profile string, opt Options) ([]line.Line, error) {
	out, err := harness.RunWithLines(profile, "Baseline", opt.run())
	if err != nil {
		return nil, err
	}
	conv, ok := out.Snap.Extra.(*uncomp.Snapshot)
	if !ok {
		return nil, fmt.Errorf("experiments: baseline snapshot has unexpected type %T", out.Snap.Extra)
	}
	return conv.Lines, nil
}

// Fig1Row is one benchmark of Figure 1: effective LLC capacity under the
// idealized schemes.
type Fig1Row struct {
	Profile    string
	IdealDedup float64
	IdealDiff  float64
}

// Fig1Result is the Figure 1 reproduction.
type Fig1Result struct {
	Rows               []Fig1Row
	GeomeanDedup       float64
	GeomeanDiff        float64
	SnapshotLinesTotal int
}

// Fig1 measures the effective LLC capacity of Ideal-Dedup and Ideal-Diff
// on conventional-LLC snapshots (baseline = 1×).
func Fig1(opt Options) (*Fig1Result, error) {
	profiles := opt.profiles()
	type cell struct {
		row   Fig1Row
		lines int
	}
	cells, err := harness.ParMap(len(profiles), opt.Workers, func(i int) (cell, error) {
		lines, err := snapshot(profiles[i], opt)
		if err != nil {
			return cell{}, err
		}
		return cell{
			row: Fig1Row{
				Profile:    profiles[i],
				IdealDedup: ideal.DedupSnapshot(lines),
				IdealDiff:  ideal.DiffSnapshot(lines),
			},
			lines: len(lines),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig1Result{}
	var dd, df []float64
	for _, c := range cells {
		res.Rows = append(res.Rows, c.row)
		res.SnapshotLinesTotal += c.lines
		dd = append(dd, c.row.IdealDedup)
		df = append(df, c.row.IdealDiff)
	}
	res.GeomeanDedup = geomean(dd)
	res.GeomeanDiff = geomean(df)
	return res, nil
}

// Report renders Figure 1.
func (r *Fig1Result) Report() string {
	t := report.NewTable("Figure 1: effective LLC capacity from idealized compression",
		"benchmark", "baseline", "Ideal-Dedup", "Ideal-Diff")
	for _, row := range r.Rows {
		t.AddRow(row.Profile, 1.0, row.IdealDedup, row.IdealDiff)
	}
	t.AddRow("Gmean", 1.0, r.GeomeanDedup, r.GeomeanDiff)
	return t.String()
}

// Fig2Result is the Figure 2 (top) reproduction: the fraction of mcf
// lines dedupable within n bytes.
type Fig2Result struct {
	Profile string
	CDF     [line.Size + 1]float64
}

// Fig2 computes the allowed-difference CDF for a profile (mcf in the
// paper).
func Fig2(profile string, opt Options) (*Fig2Result, error) {
	lines, err := snapshot(profile, opt)
	if err != nil {
		return nil, err
	}
	return &Fig2Result{Profile: profile, CDF: ideal.DiffCDF(lines)}, nil
}

// Report renders Figure 2.
func (r *Fig2Result) Report() string {
	t := report.NewTable(
		fmt.Sprintf("Figure 2: %% of %s lines dedupable within n differing bytes", r.Profile),
		"allowed diff (bytes)", "% of memory blocks")
	for _, n := range []int{0, 4, 8, 12, 16, 24, 32, 40, 48, 56, 64} {
		t.AddRowf(fmt.Sprintf("%d", n), fmt.Sprintf("%.1f%%", 100*r.CDF[n]))
	}
	return t.String()
}

// Fig5Row is one benchmark of Figure 5.
type Fig5Row struct {
	Profile    string
	Eps        int
	Clusters   int
	MaxMembers int
	Savings    float64
}

// Fig5Result is the Figure 5 reproduction: DBSCAN cluster statistics on
// LLC snapshots, with the distance threshold tuned to 40% space savings.
type Fig5Result struct {
	Rows []Fig5Row
}

// fig5SnapshotCap bounds the snapshot size fed to DBSCAN: the quadratic
// fallback dominates above this and the cluster statistics are stable
// under subsampling.
const fig5SnapshotCap = 4096

// strideSample subsamples xs to at most max elements with a uniform
// stride. A prefix would cover only the start of the slice (for
// address-sorted snapshots, the lowest-addressed region); the stride
// spreads the sample across the whole input. The input is returned
// as-is when it already fits.
func strideSample[T any](xs []T, max int) []T {
	if len(xs) <= max {
		return xs
	}
	stride := (len(xs) + max - 1) / max
	sampled := make([]T, 0, max)
	for i := 0; i < len(xs); i += stride {
		sampled = append(sampled, xs[i])
	}
	return sampled
}

// Fig5 runs the clustering motivation experiment.
func Fig5(opt Options) (*Fig5Result, error) {
	profiles := opt.profiles()
	rows, err := harness.ParMap(len(profiles), opt.Workers, func(i int) (Fig5Row, error) {
		lines, err := snapshot(profiles[i], opt)
		if err != nil {
			return Fig5Row{}, err
		}
		lines = strideSample(lines, fig5SnapshotCap)
		params, r := cluster.TuneEps(lines, 0.40, 2)
		return Fig5Row{
			Profile:    profiles[i],
			Eps:        params.Eps,
			Clusters:   r.NumClusters,
			MaxMembers: r.MaxClusterSize(),
			Savings:    cluster.SpaceSavings(lines, r),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig5Result{Rows: rows}, nil
}

// Report renders Figure 5.
func (r *Fig5Result) Report() string {
	t := report.NewTable("Figure 5: dbscan clusters in LLC snapshots (eps tuned to 40% savings)",
		"benchmark", "eps(B)", "clusters", "max members", "savings")
	for _, row := range r.Rows {
		t.AddRowf(row.Profile, fmt.Sprintf("%d", row.Eps), fmt.Sprintf("%d", row.Clusters),
			fmt.Sprintf("%d", row.MaxMembers), fmt.Sprintf("%.0f%%", 100*row.Savings))
	}
	return t.String()
}

// Table1Report renders the simulated system configuration (Table 1).
func Table1Report() string {
	sys := sim.DefaultSystem()
	t := report.NewTable("Table 1: configuration of the simulated system", "component", "configuration")
	t.AddRowf("CPU", fmt.Sprintf("x86-64, %.2fGHz, out-of-order (overlap factor %.2f, core IPC %.1f)",
		sys.Timing.FrequencyGHz, sys.Timing.OverlapFactor, sys.Timing.CoreIPC))
	t.AddRowf("L1D", fmt.Sprintf("%dKB, %d-way, 64B lines, LRU", sys.L1DSizeBytes>>10, sys.L1DWays))
	t.AddRowf("L2", fmt.Sprintf("private, %dKB, %d-way, %.0f-cycle latency, LRU",
		sys.L2SizeBytes>>10, sys.L2Ways, sys.Timing.L2HitCycles))
	t.AddRowf("LLC", fmt.Sprintf("shared 1MB, 8-way, %.0f-cycle latency, 64B lines", sys.Timing.LLCHitCycles))
	t.AddRowf("Memory", fmt.Sprintf("DDR3-class, %.0f-cycle access latency", sys.Timing.MemCycles))
	return t.String()
}

// Table2Report renders the iso-silicon storage allocation (Table 2).
func Table2Report() string {
	t := report.NewTable("Table 2: storage allocation (iso-silicon with 1MB conventional)",
		"design", "tag entries", "tag bits", "tag KB", "data entries", "data bits", "data KB",
		"dict entries", "dict KB", "total KB")
	for _, r := range energy.Table2() {
		t.AddRowf(r.Design,
			fmt.Sprintf("%d", r.TagEntries), fmt.Sprintf("%d", r.TagEntryBits),
			fmt.Sprintf("%d", r.TagBytes()>>10),
			fmt.Sprintf("%d", r.DataEntries), fmt.Sprintf("%d", r.DataEntryBits),
			fmt.Sprintf("%d", r.DataBytes()>>10),
			fmt.Sprintf("%d", r.DictEntries), fmt.Sprintf("%d", r.DictBytes()>>10),
			fmt.Sprintf("%d", r.TotalBytes()>>10))
	}
	return t.String()
}

// Table3Report renders the cache energy comparison (Table 3).
func Table3Report() string {
	var b strings.Builder
	for _, node := range []energy.Process{energy.Node45nm, energy.Node32nm} {
		t := report.NewTable(fmt.Sprintf("Table 3 (%dnm): per-bank dynamic read energy and leakage", int(node)),
			"design", "dynamic energy (nJ)", "leakage power (mW)")
		for _, r := range energy.Table3(node) {
			t.AddRowf(r.Design, fmt.Sprintf("%.2f", r.ReadEnergyNJ), fmt.Sprintf("%.2f", r.LeakagePowerW*1000))
		}
		b.WriteString(t.String())
	}
	return b.String()
}

// Table4Report renders the added-logic synthesis results (Table 4).
func Table4Report() string {
	t := report.NewTable("Table 4: Thesaurus added-logic synthesis (45nm, 2.66GHz)",
		"block", "latency (cycles)", "dynamic (mW)", "leakage (mW)", "area (mm^2)")
	for _, blk := range energy.Table4() {
		t.AddRowf(blk.Name, fmt.Sprintf("%d", blk.LatencyCycles),
			fmt.Sprintf("%.3f", blk.DynamicW*1000), fmt.Sprintf("%.2f", blk.LeakageW*1000),
			fmt.Sprintf("%.3f", blk.AreaMM2))
	}
	t.AddRowf("total", "", "", "", fmt.Sprintf("%.3f", energy.ThesaurusLogicArea()))
	return t.String()
}

// geomean is stats.Geomean, aliased for brevity.
func geomean(xs []float64) float64 { return stats.Geomean(xs) }
