package experiments

import (
	"fmt"
	"strings"

	"repro/internal/diffenc"
	"repro/internal/energy"
	"repro/internal/harness"
	"repro/internal/report"
	"repro/internal/sim"
	"repro/internal/thesaurus"
	"repro/internal/workload"
)

// Fig13Cell is one design × benchmark measurement.
type Fig13Cell struct {
	Occupancy float64 // compressed size relative to baseline (Fig. 13a)
	CR        float64 // effective compression ratio
	MPKI      float64
	NormMPKI  float64 // relative to the uncompressed baseline (Fig. 13b)
	IPC       float64
	NormIPC   float64 // relative to the uncompressed baseline (Fig. 13c)
	DRAMRate  float64 // demand DRAM accesses per second (for Fig. 14)
	LLCRate   float64 // LLC accesses per second (for Fig. 14)
}

// Fig13Result holds the full main-results matrix.
type Fig13Result struct {
	Profiles  []string
	Sensitive map[string]bool
	Designs   []string
	Cells     map[string]map[string]Fig13Cell // design → profile → cell

	// Geomeans per design: compression over all benchmarks; MPKI and IPC
	// split into the sensitive (S) and insensitive (NS) groups, as in the
	// paper's Gmean-S / Gmean-NS bars.
	GeomeanCR       map[string]float64
	GeomeanMPKIS    map[string]float64
	GeomeanMPKINS   map[string]float64
	GeomeanIPCS     map[string]float64
	GeomeanIPCNS    map[string]float64
	ThesaurusExtras map[string]*ThesaurusProfile
}

// ThesaurusProfile carries the Thesaurus-internal statistics for one
// benchmark (Figs. 15-19).
type ThesaurusProfile struct {
	Compressible  float64                     // Fig. 15
	ClusterFracs  [4]float64                  // Fig. 16
	FormatFracs   [diffenc.NumFormats]float64 // Fig. 17 (indexed by diffenc.Format)
	AvgDiffBytes  float64                     // Fig. 18
	DiffSeries    []float64                   // Fig. 19
	BaseCacheHit  float64                     // Fig. 20 input at default size
	BaseCacheCost int                         // bytes
}

// Fig13 runs the main evaluation matrix: every design over every profile.
func Fig13(opt Options) (*Fig13Result, error) {
	res := &Fig13Result{
		Profiles:        opt.profiles(),
		Sensitive:       map[string]bool{},
		Designs:         harness.Designs,
		Cells:           map[string]map[string]Fig13Cell{},
		GeomeanCR:       map[string]float64{},
		GeomeanMPKIS:    map[string]float64{},
		GeomeanMPKINS:   map[string]float64{},
		GeomeanIPCS:     map[string]float64{},
		GeomeanIPCNS:    map[string]float64{},
		ThesaurusExtras: map[string]*ThesaurusProfile{},
	}
	for _, name := range res.Profiles {
		p, err := workload.ProfileByName(name)
		if err != nil {
			return nil, err
		}
		res.Sensitive[name] = p.Sensitive
	}
	timing := sim.DefaultSystem().Timing

	// All cells are independent: run the whole matrix in parallel.
	var keys []harness.RunKey
	for _, design := range res.Designs {
		for _, prof := range res.Profiles {
			keys = append(keys, harness.RunKey{Profile: prof, Design: design})
		}
	}
	matrix, err := harness.RunMatrix(keys, opt.run())
	if err != nil {
		return nil, err
	}

	base := map[string]sim.Result{}
	for _, prof := range res.Profiles {
		base[prof] = matrix[harness.RunKey{Profile: prof, Design: "Baseline"}].Res
	}

	for _, design := range res.Designs {
		res.Cells[design] = map[string]Fig13Cell{}
		var crs []float64
		var mpkiS, mpkiNS, ipcS, ipcNS []float64
		for _, prof := range res.Profiles {
			out := matrix[harness.RunKey{Profile: prof, Design: design}]
			b := base[prof]
			cell := Fig13Cell{
				Occupancy: out.Res.Occupancy,
				CR:        out.Res.CompressionRatio,
				MPKI:      out.Res.MPKI,
				IPC:       out.Res.IPC,
				DRAMRate:  out.Res.DRAMRate(timing),
				LLCRate:   out.Res.AccessRate(timing),
			}
			// Normalizations guard against zero-MPKI benchmarks (which
			// the paper groups as insensitive with ratio 1).
			if b.MPKI > 0 {
				cell.NormMPKI = out.Res.MPKI / b.MPKI
			} else {
				cell.NormMPKI = 1
			}
			if b.IPC > 0 {
				cell.NormIPC = out.Res.IPC / b.IPC
			}
			res.Cells[design][prof] = cell
			crs = append(crs, cell.CR)
			if res.Sensitive[prof] {
				mpkiS = append(mpkiS, cell.NormMPKI)
				ipcS = append(ipcS, cell.NormIPC)
			} else {
				mpkiNS = append(mpkiNS, cell.NormMPKI)
				ipcNS = append(ipcNS, cell.NormIPC)
			}

			if ts, ok := out.Snap.Extra.(*thesaurus.Snapshot); ok {
				extra := ts.Extra
				tp := &ThesaurusProfile{
					Compressible: extra.CompressibleFraction(),
					ClusterFracs: out.ClusterFracs,
					AvgDiffBytes: extra.AvgDiffBytes(),
					DiffSeries:   ts.DiffSeries,
					BaseCacheHit: ts.BaseCache.HitRate(),
				}
				tp.BaseCacheCost = ts.BaseCache.StorageBytes
				for f := diffenc.FormatRaw; f < diffenc.NumFormats; f++ {
					tp.FormatFracs[f] = extra.FormatFraction(f)
				}
				res.ThesaurusExtras[prof] = tp
			}
		}
		res.GeomeanCR[design] = geomean(crs)
		if len(mpkiS) > 0 {
			res.GeomeanMPKIS[design] = geomean(mpkiS)
			res.GeomeanIPCS[design] = geomean(ipcS)
		}
		if len(mpkiNS) > 0 {
			res.GeomeanMPKINS[design] = geomean(mpkiNS)
			res.GeomeanIPCNS[design] = geomean(ipcNS)
		}
	}
	return res, nil
}

// Headline renders the summary experiment: each design's geomean
// compression, and its MPKI and IPC over the sensitive benchmarks.
func (r *Fig13Result) Headline() string {
	var b strings.Builder
	fmt.Fprintf(&b, "\nHeadline comparison (geomeans over %d benchmarks)\n", len(r.Profiles))
	fmt.Fprintf(&b, "%-14s %12s %12s %12s\n", "design", "compression", "MPKI (S)", "IPC (S)")
	for _, d := range r.Designs {
		fmt.Fprintf(&b, "%-14s %11.2fx %12.3f %12.3f\n",
			d, r.GeomeanCR[d], r.GeomeanMPKIS[d], r.GeomeanIPCS[d])
	}
	return b.String()
}

// Report renders Figures 13a-c.
func (r *Fig13Result) Report() string {
	var b strings.Builder

	ta := report.NewTable("Figure 13a: average cache occupancy (compressed size, 100% = no savings)",
		append([]string{"benchmark"}, r.Designs...)...)
	for _, p := range r.Profiles {
		row := []string{p}
		for _, d := range r.Designs {
			row = append(row, fmt.Sprintf("%.0f%%", 100*r.Cells[d][p].Occupancy))
		}
		ta.AddRowf(row...)
	}
	gm := []string{"Gmean CR"}
	for _, d := range r.Designs {
		gm = append(gm, fmt.Sprintf("%.2fx", r.GeomeanCR[d]))
	}
	ta.AddRowf(gm...)
	b.WriteString(ta.String())

	tb := report.NewTable("Figure 13b: MPKI relative to the uncompressed baseline (lower is better)",
		append([]string{"benchmark", "S?"}, r.Designs...)...)
	for _, p := range r.Profiles {
		row := []string{p, mark(r.Sensitive[p])}
		for _, d := range r.Designs {
			row = append(row, fmt.Sprintf("%.2f", r.Cells[d][p].NormMPKI))
		}
		tb.AddRowf(row...)
	}
	for _, g := range []struct {
		name string
		m    map[string]float64
	}{{"Gmean-NS", r.GeomeanMPKINS}, {"Gmean-S", r.GeomeanMPKIS}} {
		if len(g.m) == 0 || g.m["Baseline"] == 0 {
			continue // group empty under the selected profiles
		}
		row := []string{g.name, ""}
		for _, d := range r.Designs {
			row = append(row, fmt.Sprintf("%.2f", g.m[d]))
		}
		tb.AddRowf(row...)
	}
	b.WriteString(tb.String())

	tc := report.NewTable("Figure 13c: IPC relative to the uncompressed baseline (higher is better)",
		append([]string{"benchmark", "S?"}, r.Designs...)...)
	for _, p := range r.Profiles {
		row := []string{p, mark(r.Sensitive[p])}
		for _, d := range r.Designs {
			row = append(row, fmt.Sprintf("%.3f", r.Cells[d][p].NormIPC))
		}
		tc.AddRowf(row...)
	}
	for _, g := range []struct {
		name string
		m    map[string]float64
	}{{"Gmean-NS", r.GeomeanIPCNS}, {"Gmean-S", r.GeomeanIPCS}} {
		if len(g.m) == 0 || g.m["Baseline"] == 0 {
			continue
		}
		row := []string{g.name, ""}
		for _, d := range r.Designs {
			row = append(row, fmt.Sprintf("%.3f", g.m[d]))
		}
		tc.AddRowf(row...)
	}
	b.WriteString(tc.String())
	return b.String()
}

func mark(b bool) string {
	if b {
		return "S"
	}
	return "NS"
}

// Fig14Row is one benchmark's total-power difference.
type Fig14Row struct {
	Profile   string
	Sensitive bool
	DiffMW    float64 // positive = Thesaurus saves power
}

// Fig14Result is the Figure 14 reproduction.
type Fig14Result struct {
	Rows []Fig14Row
}

// Fig14 derives the total power difference of Thesaurus versus the
// baseline from the Fig. 13 runs and the Table 3/4 energy model.
func Fig14(opt Options) (*Fig14Result, error) {
	f13, err := Fig13(opt)
	if err != nil {
		return nil, err
	}
	res := &Fig14Result{}
	for _, p := range f13.Profiles {
		baseCell := f13.Cells["Baseline"][p]
		thesCell := f13.Cells["Thesaurus"][p]
		diff := energy.PowerDiff(baseCell.DRAMRate, thesCell.DRAMRate, thesCell.LLCRate)
		res.Rows = append(res.Rows, Fig14Row{Profile: p, Sensitive: f13.Sensitive[p], DiffMW: diff * 1000})
	}
	return res, nil
}

// Report renders Figure 14.
func (r *Fig14Result) Report() string {
	t := report.NewTable("Figure 14: total power difference vs baseline (positive = Thesaurus saves power)",
		"benchmark", "S?", "power diff (mW)")
	for _, row := range r.Rows {
		t.AddRowf(row.Profile, mark(row.Sensitive), fmt.Sprintf("%+.1f", row.DiffMW))
	}
	return t.String()
}
