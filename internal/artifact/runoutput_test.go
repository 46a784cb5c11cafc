package artifact

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/diffenc"
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
// registered codec arm including nil-vs-empty slice edge shapes.
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
	case 3: // counters released as a nil slice
		r.Snap.Extra = llc.Counters(nil)
	case 4: // counters released empty
		r.Snap.Extra = llc.Counters{}
	case 5:
		x := &thesaurus.Snapshot{
			BaseCache: thesaurus.BaseCacheSnapshot{
				ReadPath:     stats.Counter{Hits: rng.Uint64n(1 << 20), Total: rng.Uint64n(1 << 21)},
				InsertPath:   stats.Counter{Hits: rng.Uint64n(1 << 20), Total: rng.Uint64n(1 << 21)},
				StorageBytes: 1 << 15,
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
	case 6: // many counters
		x := make(llc.Counters, 64+rng.Intn(64))
		for i := range x {
			x[i] = llc.Counter{Name: fmt.Sprintf("counter_%d", i), Value: rng.Uint64n(1 << 40)}
		}
		r.Snap.Extra = x
	case 7: // a segmented design's counters, one at the uvarint maximum
		r.Snap.Extra = llc.Counters{
			{Name: "insertions", Value: rng.Uint64n(1 << 30)},
			{Name: "compressed", Value: rng.Uint64n(1 << 29)},
			{Name: "space_evictions", Value: rng.Uint64n(1 << 20)},
			{Name: "otf_selections", Value: math.MaxUint64},
		}
	}
	return r
}

// literalRunOutputs returns one run output per Extra arm of the codec,
// every field a literal. Unlike synthRunOutput, no value comes from
// arithmetic a compiler may fuse differently on another architecture, so
// the encodings are the same on every platform.
func literalRunOutputs() []struct {
	name string
	run  *RunOutput
} {
	run := func(extra llc.ExtraSnapshot) *RunOutput {
		r := &RunOutput{
			Res: sim.Result{
				Design:       "Thesaurus",
				Instructions: 123_456_789,
				LLCStats:     llc.Stats{Reads: 1000, Writes: 200, ReadHits: 700, WriteHits: 150, Fills: 300, Writebacks: 40},
				MPKI:         2.4375,
				IPC:          1.5,
				Cycles:       98_765_432.25,
				// A value with no short binary expansion, so all 52
				// mantissa bits are pinned.
				CompressionRatio: 2.718281828459045,
				Occupancy:        0.375,
				AvgResidentLines: 16000.5,
				Samples:          48,
			},
			Snap: llc.StatsSnapshot{
				Design: "Thesaurus",
				Stats:  llc.Stats{Reads: 11, Writes: 12, ReadHits: 13, WriteHits: 14, Fills: 15, Writebacks: 16},
				Extra:  extra,
			},
			ClusterFracs: [4]float64{0.5, 0.25, 0.125, 0.0625},
		}
		for i := range r.Res.DRAM.Counts {
			r.Res.DRAM.Counts[i] = uint64(100 + i)
		}
		return r
	}
	var l0, l1 line.Line
	for i := range l0 {
		l0[i], l1[i] = byte(i), byte(255-i)
	}
	th := func(series []float64) *thesaurus.Snapshot {
		return &thesaurus.Snapshot{
			Extra: thesaurus.ExtraStats{
				Insertions: 5000, Reencodes: 700, Placements: 5700,
				ByFormat:     [diffenc.NumFormats]uint64{100, 2000, 300, 2800, 500, 7},
				Compressible: 4200, RawDueToBaseMiss: 90, DiffBytesSum: 31_000, DiffCount: 2300,
				DataEvictions: 61,
			},
			DiffSeries: series,
			BaseCache: thesaurus.BaseCacheSnapshot{
				ReadPath:     stats.Counter{Hits: 800, Total: 900},
				InsertPath:   stats.Counter{Hits: 4000, Total: 5000},
				StorageBytes: 1 << 15,
			},
			LiveClusters:  321,
			ValidClusters: 400,
		}
	}
	return []struct {
		name string
		run  *RunOutput
	}{
		{"nil", run(nil)},
		{"uncomp-lines", run(&uncomp.Snapshot{Lines: []line.Line{l0, l1}})},
		{"uncomp-no-lines", run(&uncomp.Snapshot{})},
		{"thesaurus-series", run(th([]float64{12.5, 7.25, 0}))},
		{"thesaurus-no-series", run(th(nil))},
		{"counters-nil", run(llc.Counters(nil))},
		{"counters-empty", run(llc.Counters{})},
		{"counters", run(llc.Counters{{Name: "insertions", Value: 9000}, {Name: "otf_selections", Value: math.MaxUint64}})},
	}
}

// TestRunOutputWireFormatPinned holds the SHA-256 of each literal run
// output's artifact encoding. Entries warmed by an earlier build stay
// hits only while these digests hold. A deliberate format change bumps
// RunOutputVersion and refreshes the digests in the same change.
func TestRunOutputWireFormatPinned(t *testing.T) {
	want := map[string]string{
		"nil":                 "5bcd6d32afe98802efa457a8a20da8207082ad2d7cb1a7e6a555b8af4b0faaa3",
		"uncomp-lines":        "c770a36eb2dda2f29e37e3870f45022ed9e8feac58c9b78c2631a36e819d7363",
		"uncomp-no-lines":     "a9fcb71ea41674da2e508d21645c9ad90454f8a14b685e5e37bd6db556d689ee",
		"thesaurus-series":    "abdad0e7a905ff3c4ed7c43f26f00bc77c7f45c00a9b81ef77ce1396a8f0e6f4",
		"thesaurus-no-series": "3aa205f22271e4f0c4bfa000a8d48afa7555eadb5d5410656b09a6b5ab3a617d",
		// A nil and an empty counter view persist alike: the codec writes
		// only the count.
		"counters-nil":   "fff9682c20e97daaef0cbd63c33b4e998937e8576a0c1146eaa96e4e51ff183f",
		"counters-empty": "fff9682c20e97daaef0cbd63c33b4e998937e8576a0c1146eaa96e4e51ff183f",
		"counters":       "746f8047f7149200f780bc8ae8279fc4997e0a2d27a14f21aa208ee808440c5c",
	}
	for _, tc := range literalRunOutputs() {
		sum := sha256.Sum256(Encode(nil, &File{Run: tc.run}))
		if got := hex.EncodeToString(sum[:]); got != want[tc.name] {
			t.Errorf("%s: encoding digest %s, want %s", tc.name, got, want[tc.name])
		}
	}
}

// TestStoreRunOutputAllocates: storing a run output allocates for the
// artifact's size, not a fixed megabyte-sized encode buffer.
func TestStoreRunOutputAllocates(t *testing.T) {
	c := testCache(t, 0)
	r := synthRunOutput(5) // a Thesaurus snapshot: the largest extra
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c.StoreRunOutput("k", r)
		}
	})
	if got := res.AllocedBytesPerOp(); got >= 64<<10 {
		t.Fatalf("StoreRunOutput allocates %d bytes per store, want under 64 KiB", got)
	}
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
// even though the container version still matches. That holds for
// entries of earlier versions (v3, before the counter snapshots; v4,
// whose Thesaurus snapshot still carried its configuration) and of a
// future one.
func TestRunOutputSectionVersionSkew(t *testing.T) {
	r := synthRunOutput(7)
	for _, v := range []byte{3, 4, RunOutputVersion + 1} {
		// A run-only artifact's section starts right after the header
		// with its sub-version uvarint; rewrite it and fix the checksum —
		// exactly the bytes that version would write.
		skew := Encode(nil, &File{Run: r})
		skew[headerLen] = v
		patchCRC(skew)
		if _, err := Decode(skew); !errors.Is(err, ErrVersionSkew) {
			t.Fatalf("v%d run section: got %v, want ErrVersionSkew", v, err)
		}

		dir := t.TempDir()
		c, err := Open(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		c.StoreRunOutput("skewkey", r)
		if err := os.WriteFile(c.path("skewkey"), skew, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.LoadRunOutput("skewkey"); ok {
			t.Fatalf("v%d run artifact loaded as a hit", v)
		}
		st := c.Stats()
		if st.Corrupt != 0 {
			t.Fatalf("v%d: version skew counted as corruption: %+v", v, st)
		}
		if st.Misses != 1 {
			t.Fatalf("v%d: want exactly one miss, got %+v", v, st)
		}
	}
}

// A counter snapshot longer than maxCounters, or whose name runs past the
// end of the section, is corruption even under a valid checksum.
func TestRunOutputCounterEdgesCorrupt(t *testing.T) {
	r := synthRunOutput(0)
	r.Snap.Extra = make(llc.Counters, maxCounters+1)

	if _, err := Decode(Encode(nil, &File{Run: r})); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("over-cap counter count: got %v, want ErrCorrupt", err)
	}

	const name = "truncated_name"
	r.Snap.Extra = llc.Counters{{Name: name, Value: 1}}
	data := Encode(nil, &File{Run: r})
	at := bytes.Index(data, []byte(name))
	if at < 1 || data[at-1] != byte(len(name)) {
		t.Fatal("counter name not found in the encoding")
	}
	// Only the value and the four cluster fractions follow the name, so
	// this length runs past the end of the section.
	data[at-1] = 0x7f
	patchCRC(data)
	if _, err := Decode(data); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated counter name: got %v, want ErrCorrupt", err)
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
	// Every leaf field of the Thesaurus configuration, the nested LSH
	// configuration included, must reach the key: the key is the only
	// record of the configuration a cached run ran with, so a field left
	// out would let two ablation points share one cached run.
	for k := 0; ; k++ {
		c := cfg
		path, ok := perturbLeaf(reflect.ValueOf(&c).Elem(), k)
		if !ok {
			break
		}
		perturb["thesaurus-cfg"+path] = RunOutputKey(p, sys, "Thesaurus", 1000, replay, true, &c)
	}
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

// perturbLeaf changes the k-th leaf of v, counting in field order, and
// returns the leaf's path; ok is false when v has k leaves or fewer. The
// leaves are every number, bool and string (numbers step by one, floats
// flip their lowest bit), the nil-or-empty state of every empty slice,
// and the length of every non-empty one, whose elements are walked too.
// Pointers and interfaces are followed; a nil one has no leaves. v must
// be settable. The walk panics on a kind it cannot perturb, so a new
// field type is noticed.
func perturbLeaf(v reflect.Value, k int) (path string, ok bool) {
	var walk func(v reflect.Value, path string) (string, bool)
	leaf := func(path string, set func()) (string, bool) {
		if k > 0 {
			k--
			return "", false
		}
		set()
		return path, true
	}
	walk = func(v reflect.Value, path string) (string, bool) {
		switch v.Kind() {
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				if p, ok := walk(v.Field(i), path+"."+v.Type().Field(i).Name); ok {
					return p, true
				}
			}
			return "", false
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				if p, ok := walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i)); ok {
					return p, true
				}
			}
			return "", false
		case reflect.Slice:
			if v.Len() == 0 {
				return leaf(path+" nil/empty", func() {
					if v.IsNil() {
						v.Set(reflect.MakeSlice(v.Type(), 0, 0))
					} else {
						v.Set(reflect.Zero(v.Type()))
					}
				})
			}
			for i := 0; i < v.Len(); i++ {
				if p, ok := walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i)); ok {
					return p, true
				}
			}
			return leaf(path+" length", func() { v.SetLen(v.Len() - 1) })
		case reflect.Pointer:
			if v.IsNil() {
				return "", false
			}
			return walk(v.Elem(), path)
		case reflect.Interface:
			if v.IsNil() {
				return "", false
			}
			// A non-pointer dynamic value is not settable in place: walk
			// a copy and store it back.
			e := v.Elem()
			cp := reflect.New(e.Type()).Elem()
			cp.Set(e)
			p, ok := walk(cp, path+"("+e.Type().String()+")")
			if ok {
				v.Set(cp)
			}
			return p, ok
		case reflect.Int, reflect.Int64:
			return leaf(path, func() { v.SetInt(v.Int() + 1) })
		case reflect.Uint8, reflect.Uint64:
			return leaf(path, func() { v.SetUint(v.Uint() + 1) })
		case reflect.Float64:
			return leaf(path, func() { v.SetFloat(math.Float64frombits(math.Float64bits(v.Float()) ^ 1)) })
		case reflect.Bool:
			return leaf(path, func() { v.SetBool(!v.Bool()) })
		case reflect.String:
			return leaf(path, func() { v.SetString(v.String() + "x") })
		}
		panic(fmt.Sprintf("%s: kind %v not perturbed", path, v.Kind()))
	}
	return walk(v, "")
}

// TestRunOutputEqualIsStrict: RunOutputEqual compares canonical
// encodings, so a field the codec leaves out would compare equal however
// it differs. For every Extra arm, changing any one leaf of the run
// output — each sim.Result, llc.Stats and DRAM count, each cluster
// fraction, each snapshot field down to one line byte and one counter's
// name and value, a slice's length, a nil slice against an empty one —
// must be reported as a difference. The one exception is an empty
// counter view: the codec writes only the count, so nil and empty are
// one value.
func TestRunOutputEqualIsStrict(t *testing.T) {
	nilVsEmptyCounters := func(a, b *RunOutput) bool {
		x, okx := a.Snap.Extra.(llc.Counters)
		y, oky := b.Snap.Extra.(llc.Counters)
		return okx && oky && len(x) == 0 && len(y) == 0 && (x == nil) != (y == nil)
	}
	for _, tc := range literalRunOutputs() {
		leaves := 0
		for k := 0; ; k++ {
			r := tc.run.Clone()
			path, ok := perturbLeaf(reflect.ValueOf(r).Elem(), k)
			if !ok {
				break
			}
			leaves++
			differs := !RunOutputEqual(tc.run, r)
			if want := !nilVsEmptyCounters(tc.run, r); differs != want {
				t.Errorf("%s: perturbing %s: RunOutputEqual reports a difference %v, want %v", tc.name, path, differs, want)
			}
		}
		if leaves == 0 {
			t.Errorf("%s: walk found no leaves", tc.name)
		}
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
