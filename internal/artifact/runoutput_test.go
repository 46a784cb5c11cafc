package artifact

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"sync"
	"testing"

	"repro/internal/bdi"
	"repro/internal/bdicache"
	"repro/internal/cpack"
	"repro/internal/dedupcache"
	"repro/internal/dish"
	"repro/internal/line"
	"repro/internal/llc"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/thesaurus"
	"repro/internal/uncomp"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// synthRunOutput builds a run snapshot with every field populated and the
// Extra union varied by seed, so the round-trip tests cover every
// registered codec arm including nil-vs-empty slice and map edge shapes.
func synthRunOutput(seed uint64) *RunOutput {
	rng := xrand.New(seed)
	r := &RunOutput{
		Res: sim.Result{
			Design:       fmt.Sprintf("design-%d", seed),
			Instructions: rng.Uint64n(1 << 40),
			LLCStats: llc.Stats{
				Reads: rng.Uint64n(1 << 30), Writes: rng.Uint64n(1 << 30),
				ReadHits: rng.Uint64n(1 << 29), WriteHits: rng.Uint64n(1 << 29),
				Fills: rng.Uint64n(1 << 28), Writebacks: rng.Uint64n(1 << 28),
			},
			MPKI:             rng.NormFloat64(),
			IPC:              rng.Float64() * 4,
			Cycles:           rng.Float64() * 1e12,
			CompressionRatio: 1 + rng.Float64(),
			Occupancy:        rng.Float64(),
			AvgResidentLines: rng.Float64() * 16384,
			Samples:          rng.Intn(10000),
		},
		Snap: llc.StatsSnapshot{
			Design: fmt.Sprintf("snap-%d", seed),
			Stats:  llc.Stats{Reads: rng.Uint64n(1 << 20), WriteHits: rng.Uint64n(1 << 20)},
		},
		ClusterFracs: [4]float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()},
	}
	for i := range r.Res.DRAM.Counts {
		r.Res.DRAM.Counts[i] = rng.Uint64n(1 << 30)
	}
	switch seed % 8 {
	case 0: // nil extra (Ideal)
	case 1:
		lines := make([]line.Line, rng.Intn(64))
		for i := range lines {
			lines[i][0], lines[i][17] = byte(rng.Uint32()), byte(rng.Uint32())
		}
		r.Snap.Extra = &uncomp.Snapshot{Lines: lines}
	case 2: // uncomp with nil lines (released empty)
		r.Snap.Extra = &uncomp.Snapshot{}
	case 3:
		x := &bdicache.Snapshot{Extra: bdicache.ExtraStats{
			Insertions: rng.Uint64n(1 << 30), Compressed: rng.Uint64n(1 << 29),
			SpaceEvictions: rng.Uint64n(1 << 20),
			ByKind:         map[bdi.Kind]uint64{},
		}}
		for k := 0; k < rng.Intn(9); k++ {
			x.Extra.ByKind[bdi.Kind(k)] = rng.Uint64n(1 << 28)
		}
		r.Snap.Extra = x
	case 4:
		r.Snap.Extra = &dedupcache.Snapshot{Extra: dedupcache.ExtraStats{
			Insertions: rng.Uint64n(1 << 30), Deduped: rng.Uint64n(1 << 29),
			FalseMatches: rng.Uint64n(1 << 10), ListEvictions: rng.Uint64n(1 << 20),
		}}
	case 5:
		cfg := thesaurus.DefaultConfig()
		cfg.DiffSeriesWindow = 512
		cfg.IntraLineFallback = rng.Bool(0.5)
		x := &thesaurus.Snapshot{
			Cfg: cfg,
			Adaptive: thesaurus.AdaptiveStats{
				Epochs: rng.Uint64n(100), DisabledEpochs: rng.Uint64n(50),
				DisabledPlacements: rng.Uint64n(1 << 20),
			},
			BaseCache: thesaurus.BaseCacheSnapshot{
				ReadPath:   stats.Counter{Hits: rng.Uint64n(1 << 20), Total: rng.Uint64n(1 << 21)},
				InsertPath: stats.Counter{Hits: rng.Uint64n(1 << 20), Total: rng.Uint64n(1 << 21)},
				Entries:    512, StorageBytes: 1 << 15,
			},
			LiveClusters:  rng.Intn(1 << 15),
			ValidClusters: rng.Intn(1 << 15),
		}
		x.Extra.Insertions = rng.Uint64n(1 << 30)
		x.Extra.Reencodes = rng.Uint64n(1 << 28)
		x.Extra.Placements = x.Extra.Insertions + x.Extra.Reencodes
		for i := range x.Extra.ByFormat {
			x.Extra.ByFormat[i] = rng.Uint64n(1 << 26)
		}
		x.Extra.Compressible = rng.Uint64n(1 << 29)
		x.Extra.DiffBytesSum = rng.Uint64n(1 << 33)
		x.Extra.DiffCount = rng.Uint64n(1 << 27)
		if rng.Bool(0.7) {
			x.DiffSeries = make([]float64, rng.Intn(100))
			for i := range x.DiffSeries {
				x.DiffSeries[i] = rng.Float64() * 64
			}
		}
		r.Snap.Extra = x
	case 6:
		x := &cpack.Snapshot{Extra: cpack.ExtraStats{
			Insertions: rng.Uint64n(1 << 30), Compressed: rng.Uint64n(1 << 29),
			SpaceEvictions: rng.Uint64n(1 << 20),
		}}
		for i := range x.Extra.ByPattern {
			x.Extra.ByPattern[i] = rng.Uint64n(1 << 28)
		}
		r.Snap.Extra = x
	case 7:
		r.Snap.Extra = &dish.Snapshot{Extra: dish.ExtraStats{
			Insertions:   rng.Uint64n(1 << 30),
			Scheme1Fills: rng.Uint64n(1 << 29), Scheme2Fills: rng.Uint64n(1 << 29),
			UncompressedFills: rng.Uint64n(1 << 28),
			OTFSelections:     rng.Uint64n(1 << 20),
			SpaceEvictions:    rng.Uint64n(1 << 20),
		}}
	}
	return r
}

func TestRunOutputRoundtrip(t *testing.T) {
	for seed := uint64(0); seed < 24; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			want := synthRunOutput(seed)
			data := Encode(nil, &File{Run: want})
			f, err := Decode(data)
			if err != nil {
				t.Fatal(err)
			}
			if f.Run == nil {
				t.Fatal("run section missing after decode")
			}
			if !RunOutputEqual(want, f.Run) {
				t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", f.Run, want)
			}
			// Canonical encoding: re-encoding the decoded value must be
			// byte-identical (the warm-cache byte-identity contract rests
			// on exactly this).
			if re := Encode(nil, f); !bytes.Equal(re, data) {
				t.Fatalf("re-encode differs: %d vs %d bytes", len(re), len(data))
			}
		})
	}
}

// Special float bit patterns must survive exactly: the codec stores IEEE
// bits, not formatted values.
func TestRunOutputFloatBitExactness(t *testing.T) {
	want := synthRunOutput(0)
	want.Res.MPKI = math.Inf(1)
	want.Res.IPC = math.NaN()
	want.Res.Cycles = math.Copysign(0, -1)
	want.ClusterFracs[2] = math.Float64frombits(0x7ff0000000000001) // signaling NaN
	f, err := Decode(Encode(nil, &File{Run: want}))
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(f.Run.Res.MPKI) != math.Float64bits(want.Res.MPKI) ||
		math.Float64bits(f.Run.Res.IPC) != math.Float64bits(want.Res.IPC) ||
		math.Float64bits(f.Run.Res.Cycles) != math.Float64bits(want.Res.Cycles) ||
		math.Float64bits(f.Run.ClusterFracs[2]) != math.Float64bits(want.ClusterFracs[2]) {
		t.Fatal("float bit patterns changed across roundtrip")
	}
	if !RunOutputEqual(want, f.Run) {
		t.Fatal("RunOutputEqual rejects bit-identical NaN round-trip")
	}
}

func TestRunOutputRejectsTruncation(t *testing.T) {
	data := Encode(nil, &File{Run: synthRunOutput(5)})
	for _, n := range []int{0, 1, headerLen, len(data) / 2, len(data) - 1} {
		if _, err := Decode(data[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: got %v, want ErrCorrupt", n, err)
		}
	}
}

func TestRunOutputRejectsBitFlips(t *testing.T) {
	data := Encode(nil, &File{Run: synthRunOutput(3)})
	for i := 0; i < len(data); i += 7 {
		mut := bytes.Clone(data)
		mut[i] ^= 0x10
		if _, err := Decode(mut); err == nil {
			t.Fatalf("bit flip at byte %d accepted", i)
		}
	}
}

// A run section written under a different RunOutputVersion must decode as
// version skew — the cache treats that as a silent miss, never an error —
// even though the container version still matches.
func TestRunOutputSectionVersionSkew(t *testing.T) {
	r := synthRunOutput(7)
	// A run-only artifact's section starts right after the header with
	// its sub-version uvarint; bump it and fix the checksum — exactly
	// the bytes a future RunOutputVersion would write.
	fwd := Encode(nil, &File{Run: r})
	fwd[headerLen] = RunOutputVersion + 1
	patchCRC(fwd)
	if _, err := Decode(fwd); !errors.Is(err, ErrVersionSkew) {
		t.Fatalf("future run section: got %v, want ErrVersionSkew", err)
	}

	dir := t.TempDir()
	c, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.StoreRunOutput("futurekey", r)
	if err := os.WriteFile(c.path("futurekey"), fwd, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.LoadRunOutput("futurekey"); ok {
		t.Fatal("version-skewed run artifact loaded as a hit")
	}
	st := c.Stats()
	if st.Corrupt != 0 {
		t.Fatalf("version skew counted as corruption: %+v", st)
	}
	if st.Misses != 1 {
		t.Fatalf("want exactly one miss, got %+v", st)
	}
}

// A recording artifact under a run key (or vice versa) is a miss, not a
// hit with a nil payload — and like corruption the useless entry is
// removed so the next store regenerates it.
func TestRunOutputWrongSectionIsMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	c.StoreRecorded("key", synthRecorded(1, 10))
	if _, ok := c.LoadRunOutput("key"); ok {
		t.Fatal("recording artifact satisfied a run lookup")
	}
	if _, ok := c.LoadRecorded("key"); ok {
		t.Fatal("wrong-section entry should have been removed")
	}
}

func TestRunOutputKeySensitivity(t *testing.T) {
	p, err := workload.ProfileByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	sys := sim.DefaultSystem()
	replay := sim.DefaultReplayOptions()
	cfg := thesaurus.DefaultConfig()
	cfg.DiffSeriesWindow = 512
	base := RunOutputKey(p, sys, "Thesaurus", 1000, replay, true, &cfg)

	if RunOutputKey(p, sys, "Thesaurus", 1000, replay, true, &cfg) != base {
		t.Fatal("key not deterministic")
	}
	perturb := map[string]string{}
	perturb["design"] = RunOutputKey(p, sys, "BDI", 1000, replay, true, &cfg)
	// The new registered designs carry their own 'C' config-key fragments;
	// none may collide with each other or any other perturbation.
	perturb["design-cpack"] = RunOutputKey(p, sys, "CPack", 1000, replay, true, &cfg)
	perturb["design-dish"] = RunOutputKey(p, sys, "DISH", 1000, replay, true, &cfg)
	perturb["design-baseline"] = RunOutputKey(p, sys, "Baseline", 1000, replay, true, &cfg)
	perturb["design-2x"] = RunOutputKey(p, sys, "2x Baseline", 1000, replay, true, &cfg)
	perturb["accesses"] = RunOutputKey(p, sys, "Thesaurus", 1001, replay, true, &cfg)
	perturb["sample"] = RunOutputKey(p, sys, "Thesaurus", 1000, replay, false, &cfg)
	r2 := replay
	r2.WarmupFraction = 0.5
	perturb["warmup"] = RunOutputKey(p, sys, "Thesaurus", 1000, r2, true, &cfg)
	r3 := replay
	r3.SampleEvery = 4096
	perturb["sampleevery"] = RunOutputKey(p, sys, "Thesaurus", 1000, r3, true, &cfg)
	r4 := replay
	r4.Verify = true
	perturb["verify"] = RunOutputKey(p, sys, "Thesaurus", 1000, r4, true, &cfg)
	s2 := sys
	s2.Timing.MemCycles++
	perturb["timing"] = RunOutputKey(p, s2, "Thesaurus", 1000, replay, true, &cfg)
	s3 := sys
	s3.L2SizeBytes *= 2
	perturb["geometry"] = RunOutputKey(p, s3, "Thesaurus", 1000, replay, true, &cfg)
	c2 := cfg
	c2.VictimCandidates++
	perturb["thesaurus-cfg"] = RunOutputKey(p, sys, "Thesaurus", 1000, replay, true, &c2)
	c3 := cfg
	c3.LSH.Bits++
	perturb["lsh-cfg"] = RunOutputKey(p, sys, "Thesaurus", 1000, replay, true, &c3)
	p2, err := workload.ProfileByName("xz")
	if err != nil {
		t.Fatal(err)
	}
	perturb["profile"] = RunOutputKey(p2, sys, "Thesaurus", 1000, replay, true, &cfg)
	// A run that keeps its resident lines is keyed apart from the same run
	// without them.
	perturb["lines"] = LinesKey(base)
	perturb["lines-baseline"] = LinesKey(perturb["design-baseline"])
	if LinesKey(base) != perturb["lines"] {
		t.Fatal("LinesKey not deterministic")
	}

	whats := make([]string, 0, len(perturb))
	for what := range perturb {
		whats = append(whats, what)
	}
	sort.Strings(whats)
	seen := map[string]string{base: "base"}
	for _, what := range whats {
		k := perturb[what]
		if prev, dup := seen[k]; dup {
			t.Errorf("perturbing %s collides with %s", what, prev)
		}
		seen[k] = what
	}
}

// Concurrent LoadOrRunOutput callers across goroutines (standing in for
// processes — the lock-file protocol is identical) must coalesce into one
// compute, and a compute error must not poison the key.
func TestCacheConcurrentLoadOrRunOutput(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := synthRunOutput(9)
	var computes sync.Map
	var wg sync.WaitGroup
	results := make([]*RunOutput, 16)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, _, err := c.LoadOrRunOutput("key", func() (*RunOutput, error) {
				computes.Store(i, true)
				return synthRunOutput(9), nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i] = r
		}(i)
	}
	wg.Wait()
	nComputes := 0
	computes.Range(func(any, any) bool { nComputes++; return true })
	// The lock-file singleflight admits one computer; racers that lose
	// the lock poll for its artifact. (The in-memory coalesce layer in
	// harness is what guarantees exactly one per process; here we only
	// require that every caller got the right value.)
	if nComputes == 0 {
		t.Fatal("no caller computed")
	}
	for i, r := range results {
		if r == nil || !RunOutputEqual(r, want) {
			t.Fatalf("caller %d got wrong run output", i)
		}
	}

	errBoom := errors.New("boom")
	if _, _, err := c.LoadOrRunOutput("failkey", func() (*RunOutput, error) {
		return nil, errBoom
	}); !errors.Is(err, errBoom) {
		t.Fatalf("compute error not propagated: %v", err)
	}
	// The failed compute must not have stored anything or leaked a lock.
	r, hit, err := c.LoadOrRunOutput("failkey", func() (*RunOutput, error) {
		return synthRunOutput(11), nil
	})
	if err != nil || hit {
		t.Fatalf("retry after failed compute: hit=%v err=%v", hit, err)
	}
	if !RunOutputEqual(r, synthRunOutput(11)) {
		t.Fatal("retry returned wrong value")
	}
}

// FuzzRunOutputCodecRoundtrip mirrors FuzzRecordedCodecRoundtrip for the
// run section: arbitrary bytes must never panic the decoder, and accepted
// input must re-encode byte-identically with an equal decoded value.
func FuzzRunOutputCodecRoundtrip(f *testing.F) {
	f.Add([]byte{})
	for seed := uint64(0); seed < 8; seed++ {
		f.Add(Encode(nil, &File{Run: synthRunOutput(seed)}))
	}
	f.Add(Encode(nil, &File{Recorded: synthRecorded(1, 12), Run: synthRunOutput(8)}))
	f.Fuzz(func(t *testing.T, data []byte) {
		decoded, err := Decode(data)
		if err != nil {
			return
		}
		re := Encode(nil, decoded)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted %d bytes but re-encoded to %d different bytes", len(data), len(re))
		}
		round, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoding of accepted input rejected: %v", err)
		}
		if (round.Run == nil) != (decoded.Run == nil) {
			t.Fatal("run section presence changed across roundtrip")
		}
		if round.Run != nil && !RunOutputEqual(round.Run, decoded.Run) {
			t.Fatal("run output changed across roundtrip")
		}
	})
}
