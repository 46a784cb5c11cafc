package harness

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/artifact"
	"repro/internal/sim"
	"repro/internal/thesaurus"
	"repro/internal/uncomp"
	"repro/internal/workload"
)

// forgetRecording drops the in-memory memo entry for (name, accesses),
// simulating a fresh process over a warm artifact directory.
func forgetRecording(name string, accesses int) {
	recordedCache.Delete(fmt.Sprintf("%s/%d", name, accesses))
}

// TestArtifactHitCountedDespiteMemo is the regression test for the
// hit-accounting bug class: the disk hit must be counted exactly once,
// and later in-memory memo hits for the same key must neither hide it
// nor inflate it (the lookup lives inside the coalesced flight).
func TestArtifactHitCountedDespiteMemo(t *testing.T) {
	// Unique accesses value so the process-global memo cannot have seen
	// this key before.
	const prof, accesses = "mcf", 5003
	c, err := artifact.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	UseArtifacts(c)
	defer UseArtifacts(nil)

	cold, err := RecordProfile(prof, accesses)
	if err != nil {
		t.Fatal(err)
	}
	if st, _ := ArtifactStats(); st.Hits != 0 || st.Stores != 1 {
		t.Fatalf("cold run: %+v", st)
	}

	forgetRecording(prof, accesses)
	warm, err := RecordProfile(prof, accesses)
	if err != nil {
		t.Fatal(err)
	}
	if !artifact.RecordedEqual(cold, warm) {
		t.Fatal("loaded recording differs from the one recorded")
	}
	st, ok := ArtifactStats()
	if !ok || st.Hits != 1 {
		t.Fatalf("warm run: hits = %d, want 1", st.Hits)
	}

	// Two more calls are pure memo hits: the artifact hit stays counted
	// and the disk is not touched again.
	for i := 0; i < 2; i++ {
		memoed, err := RecordProfile(prof, accesses)
		if err != nil {
			t.Fatal(err)
		}
		if memoed != warm {
			t.Fatal("memo returned a different recording")
		}
	}
	if st2, _ := ArtifactStats(); st2.Hits != 1 || st2.BytesLoaded != st.BytesLoaded {
		t.Fatalf("memo hits changed artifact stats: %+v -> %+v", st, st2)
	}
}

// TestArtifactVerifyDetectsDivergence: with -cache-verify semantics on, a
// cached recording that does not match regeneration fails the run.
func TestArtifactVerifyDetectsDivergence(t *testing.T) {
	const prof, accesses = "mcf", 5011
	c, err := artifact.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	UseArtifacts(c)
	SetArtifactVerify(true)
	defer func() {
		SetArtifactVerify(false)
		UseArtifacts(nil)
	}()

	// Plant a wrong recording under the canonical key, as a stale-key bug
	// would: structurally valid, semantically wrong.
	p, err := workload.ProfileByName(prof)
	if err != nil {
		t.Fatal(err)
	}
	key := artifact.RecordedKey(p, sim.DefaultSystem(), accesses)
	wrong, err := RecordProfile("omnetpp", accesses)
	if err != nil {
		t.Fatal(err)
	}
	c.StoreRecorded(key, wrong)

	_, err = RecordProfile(prof, accesses)
	if err == nil || !strings.Contains(err.Error(), "verify failed") {
		t.Fatalf("planted divergence not detected: err = %v", err)
	}

	// A genuine artifact passes verification: fresh directory, record
	// cold, then verify the warm load of our own artifact.
	c2, err := artifact.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	UseArtifacts(c2)
	good, err := RecordProfile(prof, accesses)
	if err != nil {
		t.Fatalf("cold record with verify on: %v", err)
	}
	forgetRecording(prof, accesses)
	again, err := RecordProfile(prof, accesses)
	if err != nil {
		t.Fatalf("verified warm load: %v", err)
	}
	if !artifact.RecordedEqual(good, again) {
		t.Fatal("verified warm load differs")
	}
	if st, _ := ArtifactStats(); st.Hits != 1 {
		t.Fatalf("verified warm load not counted as hit: %+v", st)
	}
}

// forgetRun drops the in-memory run memo entry, simulating a fresh
// process over a warm artifact directory.
func forgetRun(profile, design string, opt RunOptions) {
	runCache.Delete(runKey(profile, design, opt, false))
	runCache.Delete(runKey(profile, design, opt, true))
}

// TestRunCacheServesWarmRun: with the artifact cache installed, a run
// whose memo entry is gone (fresh process) is served from disk without
// replaying, and the served output equals the computed one.
func TestRunCacheServesWarmRun(t *testing.T) {
	const prof, design = "mcf", "Thesaurus"
	opt := DefaultRunOptions()
	opt.Accesses = 5031
	c, err := artifact.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	UseArtifacts(c)
	defer UseArtifacts(nil)

	before := replays.Load()
	cold, err := Run(prof, design, opt)
	if err != nil {
		t.Fatal(err)
	}
	if delta := replays.Load() - before; delta != 1 {
		t.Fatalf("cold run replayed %d times, want 1", delta)
	}

	forgetRun(prof, design, opt)
	forgetRecording(prof, opt.Accesses)
	before = replays.Load()
	warm, err := Run(prof, design, opt)
	if err != nil {
		t.Fatal(err)
	}
	if delta := replays.Load() - before; delta != 0 {
		t.Fatalf("warm run replayed %d times, want 0 (run-level cache not consulted)", delta)
	}
	if !artifact.RunOutputEqual(cold, warm) {
		t.Fatal("warm run output differs from cold")
	}

	// With the run layer disabled, the warm rerun must replay again (the
	// recording layer still serves, so exactly one replay, no recording).
	SetRunCache(false)
	defer SetRunCache(true)
	forgetRun(prof, design, opt)
	forgetRecording(prof, opt.Accesses)
	before = replays.Load()
	rerun, err := Run(prof, design, opt)
	if err != nil {
		t.Fatal(err)
	}
	if delta := replays.Load() - before; delta != 1 {
		t.Fatalf("run-cache-off warm rerun replayed %d times, want 1", delta)
	}
	if !artifact.RunOutputEqual(cold, rerun) {
		t.Fatal("run-cache-off rerun output differs")
	}
}

// TestRunCacheServesCustomConfigs: sweep/ablation runs are not memoized
// in memory (they would pin read-once results), but the disk layer has no
// such concern — a repeated custom-configuration run must come back from
// the artifact cache without replaying.
func TestRunCacheServesCustomConfigs(t *testing.T) {
	const prof, design = "mcf", "Thesaurus"
	cfg := thesaurus.DefaultConfig()
	cfg.VictimCandidates = 2
	opt := DefaultRunOptions()
	opt.Accesses = 5039
	opt.Thesaurus = &cfg
	c, err := artifact.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	UseArtifacts(c)
	defer UseArtifacts(nil)

	before := replays.Load()
	cold, err := Run(prof, design, opt)
	if err != nil {
		t.Fatal(err)
	}
	if delta := replays.Load() - before; delta != 1 {
		t.Fatalf("cold custom run replayed %d times, want 1", delta)
	}
	before = replays.Load()
	warm, err := Run(prof, design, opt)
	if err != nil {
		t.Fatal(err)
	}
	if delta := replays.Load() - before; delta != 0 {
		t.Fatalf("repeated custom run replayed %d times, want 0 (disk-served)", delta)
	}
	if !artifact.RunOutputEqual(cold, warm) {
		t.Fatal("disk-served custom run differs from computed one")
	}
}

// TestRunCacheVerifyDetectsDivergence: with -cache-verify on, a planted
// wrong run artifact under the canonical key fails the run loudly.
func TestRunCacheVerifyDetectsDivergence(t *testing.T) {
	const prof, design = "mcf", "Baseline"
	opt := DefaultRunOptions()
	opt.Accesses = 5051
	c, err := artifact.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	UseArtifacts(c)
	SetArtifactVerify(true)
	defer func() {
		SetArtifactVerify(false)
		UseArtifacts(nil)
	}()

	// Compute the wrong design's output and plant it under the right
	// design's key, exactly what a stale content key would cause.
	wrong, err := Run(prof, "BDI", opt)
	if err != nil {
		t.Fatal(err)
	}
	p, err := workload.ProfileByName(prof)
	if err != nil {
		t.Fatal(err)
	}
	key := artifact.RunOutputKey(p, sim.DefaultSystem(), design, opt.Accesses, opt.Replay, false, nil)
	c.StoreRunOutput(key, wrong)

	if _, err := Run(prof, design, opt); err == nil || !strings.Contains(err.Error(), "verify failed") {
		t.Fatalf("planted run divergence not detected: err = %v", err)
	}
}

// TestRunCacheVerifyEveryDesign: -cache-verify recomputes every warm run
// and compares it with the loaded one, so each registered design's run
// output must survive the artifact codec exactly. Every design runs cold
// into a fresh cache, then warm with verification on: no run may
// diverge, and each replays exactly once (the recomputation). Thesaurus
// takes the memoized, sampled path, so its diff series and cluster
// fractions are compared too.
func TestRunCacheVerifyEveryDesign(t *testing.T) {
	const prof = "mcf"
	opt := DefaultRunOptions()
	opt.Accesses = 5119
	c, err := artifact.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	UseArtifacts(c)
	defer func() {
		SetArtifactVerify(false)
		UseArtifacts(nil)
	}()
	for _, d := range Designs {
		if _, err := Run(prof, d, opt); err != nil {
			t.Fatalf("%s cold: %v", d, err)
		}
	}
	SetArtifactVerify(true)
	for _, d := range Designs {
		forgetRun(prof, d, opt)
		before := replays.Load()
		out, err := Run(prof, d, opt)
		if err != nil {
			t.Fatalf("%s warm, verified: %v", d, err)
		}
		if delta := replays.Load() - before; delta != 1 {
			t.Fatalf("%s warm, verified: %d replays, want 1", d, delta)
		}
		if d == "Thesaurus" {
			if th := out.Snap.Extra.(*thesaurus.Snapshot); len(th.DiffSeries) == 0 || out.ClusterFracs == [4]float64{} {
				t.Fatalf("Thesaurus run carries no diff series or cluster fractions: %+v", out)
			}
		}
	}
	if st, _ := ArtifactStats(); st.Hits != uint64(len(Designs)) {
		t.Fatalf("warm pass: %d run hits, want %d", st.Hits, len(Designs))
	}
}

// TestArtifactCacheTransparent: a run with the artifact cache installed
// produces a recording identical to one computed without it.
func TestArtifactCacheTransparent(t *testing.T) {
	const prof, accesses = "xz", 5021
	plain, err := RecordProfile(prof, accesses)
	if err != nil {
		t.Fatal(err)
	}
	c, err := artifact.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	UseArtifacts(c)
	defer UseArtifacts(nil)
	forgetRecording(prof, accesses)
	cold, err := RecordProfile(prof, accesses)
	if err != nil {
		t.Fatal(err)
	}
	forgetRecording(prof, accesses)
	warm, err := RecordProfile(prof, accesses)
	if err != nil {
		t.Fatal(err)
	}
	if !artifact.RecordedEqual(plain, cold) || !artifact.RecordedEqual(plain, warm) {
		t.Fatal("artifact cache changed the recording")
	}
}

// TestRunWithLinesAcrossPaths: a line snapshot is the same whether the
// run was computed, loaded from a warm run-level cache, or loaded and
// re-verified (-cache-verify). It is stored under its own disk key, so a plain run
// of the same cell over the same directory neither loads it nor is
// served lines.
func TestRunWithLinesAcrossPaths(t *testing.T) {
	const prof, design = "mcf", "Baseline"
	opt := DefaultRunOptions()
	opt.Accesses = 5107
	ref, err := RunWithLines(prof, design, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Snap.Extra.(*uncomp.Snapshot).Lines) == 0 {
		t.Fatal("reference line snapshot is empty")
	}
	c, err := artifact.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	UseArtifacts(c)
	defer func() {
		SetArtifactVerify(false)
		UseArtifacts(nil)
	}()
	for _, step := range []struct {
		what    string
		verify  bool
		replays uint64
	}{
		{"cold", false, 1},
		{"warm", false, 0},
		{"warm, verified", true, 1},
	} {
		SetArtifactVerify(step.verify)
		forgetRun(prof, design, opt)
		before := replays.Load()
		got, err := RunWithLines(prof, design, opt)
		if err != nil {
			t.Fatalf("%s: %v", step.what, err)
		}
		if delta := replays.Load() - before; delta != step.replays {
			t.Fatalf("%s: %d replays, want %d", step.what, delta, step.replays)
		}
		if !artifact.RunOutputEqual(ref, got) {
			t.Fatalf("%s: line snapshot differs from the uncached run", step.what)
		}
	}
	SetArtifactVerify(false)

	key, err := DefaultRunContentKey(prof, design, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.LoadRunOutput(key); ok {
		t.Fatal("a line run was stored under the plain run's key")
	}
	if _, ok := c.LoadRunOutput(artifact.LinesKey(key)); !ok {
		t.Fatal("line run not stored under LinesKey of the plain run's key")
	}
	before := replays.Load()
	plain, err := Run(prof, design, opt)
	if err != nil {
		t.Fatal(err)
	}
	if delta := replays.Load() - before; delta != 1 {
		t.Fatalf("plain run over a directory holding only the line run replayed %d times, want 1", delta)
	}
	if plain.Snap.Extra.(*uncomp.Snapshot).Lines != nil {
		t.Fatal("plain run carries resident lines")
	}
}

// TestDefaultRunContentKeyNamesCampaignCells: the key a netq coordinator
// stores a campaign cell's streamed run output under is the key the
// cell's Run stores under, for every design — line runs of the same cell
// in the same process do not move it.
func TestDefaultRunContentKeyNamesCampaignCells(t *testing.T) {
	const prof = "xz"
	opt := DefaultRunOptions()
	opt.Accesses = 5113
	c, err := artifact.Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	UseArtifacts(c)
	defer UseArtifacts(nil)
	if _, err := RunWithLines(prof, "Baseline", opt); err != nil {
		t.Fatal(err)
	}
	var cells []RunKey
	for _, d := range Designs {
		cells = append(cells, RunKey{prof, d})
	}
	matrix, err := RunMatrix(cells, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Designs {
		key, err := DefaultRunContentKey(prof, d, opt)
		if err != nil {
			t.Fatal(err)
		}
		run, ok := c.LoadRunOutput(key)
		if !ok {
			t.Fatalf("%s: no run output under DefaultRunContentKey", d)
		}
		if !artifact.RunOutputEqual(run, matrix[RunKey{prof, d}]) {
			t.Fatalf("%s: artifact under DefaultRunContentKey is not the cell's run", d)
		}
	}
}
