package harness

import (
	"fmt"
	"sync/atomic"

	"repro/internal/artifact"
	"repro/internal/sim"
	"repro/internal/thesaurus"
	"repro/internal/workload"
)

// artifacts is the process-wide on-disk recording cache (L2 behind the
// in-memory memo). nil disables persistence. It is installed once at
// startup by the CLIs, before any recording runs. runCacheOff disables
// just the run-level layer (whole RunOutput snapshots) while keeping the
// recording layer: the cache-identity CI gate uses it to prove the
// layers are independently byte-transparent.
var (
	artifacts      atomic.Pointer[artifact.Cache]
	artifactVerify atomic.Bool
	runCacheOff    atomic.Bool
)

// UseArtifacts installs c as the persistent recording cache consulted by
// RecordProfile before simulating (nil uninstalls it). The in-memory memo
// stays in front: a process loads or records each profile at most once,
// so the disk sees exactly one access per key regardless of how many
// runs later share the memoized recording.
func UseArtifacts(c *artifact.Cache) { artifacts.Store(c) }

// SetArtifactVerify enables paranoid mode: every artifact hit (recording
// or whole run) is followed by a full recomputation and deep comparison,
// and a divergence fails the run loudly. This is the guard against
// stale-key bugs (a parameter that influences the result but is missing
// from the content key).
func SetArtifactVerify(v bool) { artifactVerify.Store(v) }

// SetRunCache enables or disables the run-level artifact layer (whole
// RunOutput snapshots). Recording artifacts are unaffected; with the run
// layer off, a warm cache still skips recording but replays every cell.
func SetRunCache(enabled bool) { runCacheOff.Store(!enabled) }

// ArtifactStats returns the installed cache's counters; ok is false when
// no cache is installed.
func ArtifactStats() (st artifact.Stats, ok bool) {
	c := artifacts.Load()
	if c == nil {
		return artifact.Stats{}, false
	}
	return c.Stats(), true
}

// recordOrLoad is the body of RecordProfile's coalesced computation: it
// consults the artifact cache (when installed) before paying for
// generation + L1/L2 simulation. Running inside the coalesce flight
// guarantees the disk lookup — and therefore the hit/miss accounting —
// happens exactly once per key per process, even when the in-memory memo
// serves every later call.
func recordOrLoad(name string, accesses int) (*sim.Recorded, error) {
	p, err := workload.ProfileByName(name)
	if err != nil {
		return nil, err
	}
	record := func() *sim.Recorded {
		gen := p.Generate(accesses)
		return sim.Record(gen.Stream, sim.DefaultSystem(), gen.Image)
	}
	c := artifacts.Load()
	if c == nil {
		return record(), nil
	}
	rec, hit := c.LoadOrRecord(artifact.RecordedKey(p, sim.DefaultSystem(), accesses), record)
	if hit && artifactVerify.Load() {
		fresh := record()
		if !artifact.RecordedEqual(rec, fresh) {
			return nil, fmt.Errorf(
				"harness: artifact verify failed for %s/%d: cached recording diverges from regeneration (stale content key?)",
				name, accesses)
		}
	}
	return rec, nil
}

// effectiveThesaurusConfig resolves the configuration a Thesaurus run
// executes with: nil means paper defaults, and DiffSeriesWindow 0 means
// the Fig. 19 default window. runOnce builds the cache from it and the
// run-level content key hashes it, so equivalent runs key alike and a
// run cannot drift from its key. Returns nil for non-Thesaurus designs:
// their runs don't read the configuration at all.
func effectiveThesaurusConfig(design string, opt RunOptions) *thesaurus.Config {
	if design != "Thesaurus" {
		return nil
	}
	cfg := thesaurus.DefaultConfig()
	if opt.Thesaurus != nil {
		cfg = *opt.Thesaurus
	}
	if cfg.DiffSeriesWindow == 0 {
		cfg.DiffSeriesWindow = 512
	}
	return &cfg
}

// runContentKey is the run-level artifact content key of a run of
// (profile, design) under opt. Fig. 16 sampling only happens on Thesaurus
// runs; for every other design the flag changes nothing about the
// result, so keying it would split identical runs across two cache
// entries.
func runContentKey(profile, design string, opt RunOptions, sample bool) (string, error) {
	p, err := workload.ProfileByName(profile)
	if err != nil {
		return "", err
	}
	return artifact.RunOutputKey(p, sim.DefaultSystem(), design, opt.Accesses,
		opt.Replay, sample && design == "Thesaurus", effectiveThesaurusConfig(design, opt)), nil
}

// DefaultRunContentKey returns the run-level artifact content key a
// memoized default-configuration run of (profile, design) stores under:
// the sampled key that campaign cells take. A netq coordinator uses it to
// name the run output a worker sends back for a campaign cell without
// re-running anything.
func DefaultRunContentKey(profile, design string, opt RunOptions) (string, error) {
	return runContentKey(profile, design, opt, true)
}

// runOrLoad is the body of Run's computation behind the in-memory layers:
// it consults the run-level artifact cache (when installed and enabled)
// before paying for a replay. For memoized default-config runs it
// executes inside the coalesce flight, so the disk lookup happens exactly
// once per key per process; custom-configuration runs (sweeps, ablations)
// go through it directly — they are not memoized in memory (they would
// pin hundreds of read-once results) but disk persistence has no such
// concern, and warm ablation reruns are where a campaign spends most of
// its time.
func runOrLoad(profile, design string, opt RunOptions, sample, lines bool) (*RunOutput, error) {
	c := artifacts.Load()
	if c == nil || runCacheOff.Load() {
		return runOnce(profile, design, opt, sample, lines)
	}
	key, err := runContentKey(profile, design, opt, sample)
	if err != nil {
		return nil, err
	}
	if lines {
		key = artifact.LinesKey(key)
	}
	compute := func() (*RunOutput, error) {
		return runOnce(profile, design, opt, sample, lines)
	}
	out, hit, err := c.LoadOrRunOutput(key, compute)
	if err != nil {
		return nil, err
	}
	if hit && artifactVerify.Load() {
		fresh, err := compute()
		if err != nil {
			return nil, err
		}
		if !artifact.RunOutputEqual(out, fresh) {
			return nil, fmt.Errorf(
				"harness: artifact verify failed for %s/%s/%d: cached run diverges from recomputation (stale content key?)",
				profile, design, opt.Accesses)
		}
	}
	return out, nil
}
