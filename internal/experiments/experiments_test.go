package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/diffenc"
)

// tinyOpt keeps experiment tests fast: two contrasting profiles at a
// short trace length.
func tinyOpt() Options {
	return Options{Accesses: 60_000, Profiles: []string{"mcf", "exchange2"}}
}

func TestFig1(t *testing.T) {
	r, err := Fig1(tinyOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.IdealDedup < 1 || row.IdealDiff < 1 {
			t.Fatalf("%s: factors below 1: %+v", row.Profile, row)
		}
		if row.IdealDiff < row.IdealDedup-0.01 {
			t.Fatalf("%s: Ideal-Diff (%v) below Ideal-Dedup (%v)", row.Profile, row.IdealDiff, row.IdealDedup)
		}
	}
	// mcf is the near-duplicate showcase: substantial diff potential.
	if r.Rows[0].Profile == "mcf" && r.Rows[0].IdealDiff < 2 {
		t.Fatalf("mcf Ideal-Diff %v", r.Rows[0].IdealDiff)
	}
	if !strings.Contains(r.Report(), "Figure 1") {
		t.Fatal("report missing title")
	}
}

func TestFig2(t *testing.T) {
	r, err := Fig2("mcf", tinyOpt())
	if err != nil {
		t.Fatal(err)
	}
	// CDF is monotone and ends at 1.
	for i := 1; i < len(r.CDF); i++ {
		if r.CDF[i] < r.CDF[i-1] {
			t.Fatalf("CDF not monotone at %d", i)
		}
	}
	if r.CDF[64] < 0.999 {
		t.Fatalf("CDF(64) = %v", r.CDF[64])
	}
	// The headline observation: most mcf lines are within 16 bytes of a
	// neighbour.
	if r.CDF[16] < 0.5 {
		t.Fatalf("CDF(16) = %v — near-duplicate structure missing", r.CDF[16])
	}
	if !strings.Contains(r.Report(), "Figure 2") {
		t.Fatal("report")
	}
}

func TestFig5(t *testing.T) {
	r, err := Fig5(Options{Accesses: 60_000, Profiles: []string{"mcf"}})
	if err != nil {
		t.Fatal(err)
	}
	row := r.Rows[0]
	if row.Clusters < 10 {
		t.Fatalf("mcf clusters %d — expected many (Fig. 5)", row.Clusters)
	}
	if row.Savings < 0.40 {
		t.Fatalf("savings %.2f below the 40%% tuning target", row.Savings)
	}
	if !strings.Contains(r.Report(), "dbscan") {
		t.Fatal("report")
	}
}

func TestFig13ShapeHolds(t *testing.T) {
	r, err := Fig13(tinyOpt())
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline ordering at benchmark granularity (mcf):
	// Thesaurus compresses far better than Dedup and BΔI.
	mcfT := r.Cells["Thesaurus"]["mcf"]
	mcfD := r.Cells["Dedup"]["mcf"]
	mcfB := r.Cells["BDI"]["mcf"]
	if !(mcfT.CR > mcfD.CR && mcfT.CR > mcfB.CR) {
		t.Fatalf("mcf CR ordering broken: T=%.2f D=%.2f B=%.2f", mcfT.CR, mcfD.CR, mcfB.CR)
	}
	if mcfT.CR < 2 {
		t.Fatalf("mcf Thesaurus CR %.2f", mcfT.CR)
	}
	// Thesaurus is within reach of the ideal model.
	idl := r.Cells["Ideal"]["mcf"]
	if mcfT.CR > idl.CR*1.25 {
		t.Fatalf("Thesaurus (%.2f) implausibly beats ideal (%.2f)", mcfT.CR, idl.CR)
	}
	// Sensitive benchmark: compression lowers MPKI and raises IPC.
	if mcfT.NormMPKI >= 1 || mcfT.NormIPC <= 1 {
		t.Fatalf("mcf gains missing: MPKI %.2f IPC %.3f", mcfT.NormMPKI, mcfT.NormIPC)
	}
	// Baseline normalizations are exactly 1.
	if b := r.Cells["Baseline"]["mcf"]; b.NormMPKI != 1 || b.NormIPC != 1 {
		t.Fatalf("baseline normalization %+v", b)
	}
	rep := r.Report()
	for _, want := range []string{"Figure 13a", "Figure 13b", "Figure 13c", "Gmean"} {
		if !strings.Contains(rep, want) {
			t.Fatalf("report missing %q", want)
		}
	}
}

func TestFig14(t *testing.T) {
	r, err := Fig14(tinyOpt())
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Fig14Row{}
	for _, row := range r.Rows {
		byName[row.Profile] = row
	}
	// mcf (sensitive, big DRAM savings) must save power; exchange2
	// (insensitive, no DRAM savings) must cost power — the Fig. 14 story.
	if byName["mcf"].DiffMW <= 0 {
		t.Fatalf("mcf power diff %.1fmW, want positive", byName["mcf"].DiffMW)
	}
	if byName["exchange2"].DiffMW >= 0 {
		t.Fatalf("exchange2 power diff %.1fmW, want negative", byName["exchange2"].DiffMW)
	}
	if !strings.Contains(r.Report(), "Figure 14") {
		t.Fatal("report")
	}
}

func TestFigs15To18(t *testing.T) {
	opt := tinyOpt()
	f15, err := Fig15(opt)
	if err != nil {
		t.Fatal(err)
	}
	if f15.Average <= 0 || f15.Average > 1 {
		t.Fatalf("Fig15 average %v", f15.Average)
	}
	f16, err := Fig16(opt)
	if err != nil {
		t.Fatal(err)
	}
	for i, fr := range f16.Fracs {
		for _, v := range fr {
			if v < 0 || v > 1 {
				t.Fatalf("Fig16 row %d fraction %v", i, v)
			}
		}
	}
	f17, err := Fig17(opt)
	if err != nil {
		t.Fatal(err)
	}
	for i, fr := range f17.Fracs {
		sum := 0.0
		for _, v := range fr {
			sum += v
		}
		if sum < 0.99 || sum > 1.01 {
			t.Fatalf("Fig17 row %d fractions sum to %v", i, sum)
		}
	}
	// mcf is dominated by the diff encodings.
	mcfIdx := -1
	for i, p := range f17.Profiles {
		if p == "mcf" {
			mcfIdx = i
		}
	}
	diffShare := f17.Fracs[mcfIdx][diffenc.FormatBaseDiff] + f17.Fracs[mcfIdx][diffenc.FormatZeroDiff]
	if diffShare < 0.5 {
		t.Fatalf("mcf diff-encoding share %.2f", diffShare)
	}
	f18, err := Fig18(opt)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range f18.Bytes {
		if b < 0 || b > 64 {
			t.Fatalf("Fig18 row %d: %v bytes", i, b)
		}
	}
	for _, rep := range []string{f15.Report(), f16.Report(), f17.Report(), f18.Report()} {
		if len(rep) == 0 {
			t.Fatal("empty report")
		}
	}
}

func TestFig19(t *testing.T) {
	r, err := Fig19(Options{Accesses: 60_000, Profiles: []string{"mcf"}})
	if err != nil {
		t.Fatal(err)
	}
	s := r.Series["mcf"]
	if len(s) == 0 {
		t.Fatal("no series points")
	}
	for _, v := range s {
		if v < 0 || v > 64 {
			t.Fatalf("series value %v", v)
		}
	}
	if !strings.Contains(r.Report(), "Figure 19") {
		t.Fatal("report")
	}
}

func TestFig20SweepMonotone(t *testing.T) {
	r, err := Fig20(Options{Accesses: 60_000, Profiles: []string{"mcf"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 5 {
		t.Fatalf("%d sweep points", len(r.Rows))
	}
	// Hit rate must not decrease with size; storage must increase.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].HitRate+0.02 < r.Rows[i-1].HitRate {
			t.Fatalf("hit rate dropped at %d entries: %.3f < %.3f",
				r.Rows[i].Entries, r.Rows[i].HitRate, r.Rows[i-1].HitRate)
		}
		if r.Rows[i].StorageKB <= r.Rows[i-1].StorageKB {
			t.Fatal("storage not increasing")
		}
	}
	if !strings.Contains(r.Report(), "Figure 20") {
		t.Fatal("report")
	}
}

func TestAblations(t *testing.T) {
	opt := Options{Accesses: 50_000, Profiles: []string{"mcf"}}
	for _, name := range []string{"ablate-victims", "ablate-bits", "ablate-sparsity"} {
		res, err := RunExperiment(name, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		r := res.(*AblationResult)
		if len(r.Points) < 3 {
			t.Fatalf("%s: %d points", name, len(r.Points))
		}
		for _, p := range r.Points {
			if p.GeomeanCR <= 0 || p.GeomeanNM <= 0 {
				t.Fatalf("%s: degenerate point %+v", name, p)
			}
		}
		rep, err := Report(name, opt)
		if err != nil {
			t.Fatalf("%s report: %v", name, err)
		}
		if !strings.Contains(rep, "Ablation") || rep != r.Report() {
			t.Fatalf("%s: Report does not render the sweep's result:\n%s", name, rep)
		}
	}
}

// TestReportUnknownExperiment: a name no experiment answers to fails in
// text mode and in JSON mode alike.
func TestReportUnknownExperiment(t *testing.T) {
	if _, err := Report("fig99", tinyOpt()); err == nil {
		t.Error("Report accepted an unknown experiment")
	}
	if _, err := CampaignJSON([]string{"fig99"}, tinyOpt()); err == nil {
		t.Error("CampaignJSON accepted an unknown experiment")
	}
}

// TestParallelReportsMatchSerial is the determinism guard for the worker
// pools: every parallelized experiment must render byte-identical reports
// for serial (Workers=1) and parallel (Workers=4) execution.
func TestParallelReportsMatchSerial(t *testing.T) {
	serial := tinyOpt()
	serial.Workers = 1
	parallel := tinyOpt()
	parallel.Workers = 4
	// fig13 runs every design per profile, so its workers drive the
	// Thesaurus/BΔI/Dedup scratch-arena encode paths concurrently — under
	// -race this pins the one-scratch-per-cache ownership rule
	// (docs/performance.md).
	for _, name := range []string{"fig1", "fig5", "fig13", "fig20", "ablate-victims"} {
		want, err := Report(name, serial)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		got, err := Report(name, parallel)
		if err != nil {
			t.Fatalf("%s parallel: %v", name, err)
		}
		if got != want {
			t.Errorf("%s: parallel report differs from serial\nserial:\n%s\nparallel:\n%s", name, want, got)
		}
	}
}

// TestParallelJSONMatchesSerial extends the determinism guard to the
// machine-readable campaign output: the JSON document must also be
// byte-identical between serial and parallel execution — struct layout
// and encoding/json's sorted map keys leave worker scheduling as the
// only possible source of divergence, which is exactly what this pins.
func TestParallelJSONMatchesSerial(t *testing.T) {
	serial := tinyOpt()
	serial.Workers = 1
	parallel := tinyOpt()
	parallel.Workers = 4
	names := []string{"fig1", "fig5", "fig13", "fig20", "ablate-victims", "table2"}
	want, err := CampaignJSON(names, serial)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	got, err := CampaignJSON(names, parallel)
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("parallel JSON campaign differs from serial\nserial:\n%s\nparallel:\n%s", want, got)
	}
}

func TestStaticTables(t *testing.T) {
	tables := []struct {
		name string
		rep  string
	}{
		{"table1", Table1Report()},
		{"table2", Table2Report()},
		{"table3", Table3Report()},
		{"table4", Table4Report()},
	}
	for _, tb := range tables {
		if len(tb.rep) < 100 {
			t.Fatalf("%s report too short", tb.name)
		}
	}
	if !strings.Contains(Table2Report(), "Thesaurus") {
		t.Fatal("table2 content")
	}
	if !strings.Contains(Table3Report(), "32nm") {
		t.Fatal("table3 content")
	}
}
