package artifact

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/llc"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/thesaurus"
	"repro/internal/workload"
)

// RunOutputVersion versions the run-output section independently of the
// container codec (Version): the section serializes the design snapshot
// structs field by field, so it must be bumped whenever sim.Result,
// llc.StatsSnapshot, or any design's release-snapshot type gains, loses,
// or reinterprets a field — and whenever replay semantics change in a way
// the recording codec version does not already capture. Registering a new
// scheme (a new codec tag) is also a bump. The version is both hashed
// into every run key and embedded in the section, so a bump turns every
// cached run into a clean miss (never an error).
//
// v2: snapshot codecs moved to the scheme registry, CPack (tag 5) and
// DISH (tag 6) designs added, per-scheme config folded into run keys.
// v3: Baseline and 2x Baseline snapshots carry their resident lines only
// when the run asked for them (keyed by LinesKey); a v2 entry under a
// default run's key still holds them and would fail -cache-verify.
const RunOutputVersion = 3

// RunOutput is a whole memoized run: the replay metrics, the released
// cache's statistics snapshot, and the Fig. 16 cluster-size fractions.
// It mirrors harness.RunOutput field for field (the harness converts at
// the cache boundary; artifact cannot import harness).
type RunOutput struct {
	Res          sim.Result
	Snap         llc.StatsSnapshot
	ClusterFracs [4]float64
}

// extraNil is the wire tag of a snapshot with no design-specific Extra.
// All other tags belong to scheme-registry codecs (scheme.CodecByTag);
// the decoder rejects unknown tags as corrupt — a new design requires a
// RunOutputVersion bump, which already turns old files into misses before
// tag dispatch is reached.
const extraNil = 0

// RunOutputKey derives the content address of a whole run: the SHA-256 of
// every input the replay's result depends on — both codec versions (the
// recording feeds the run, so recording-semantics bumps must also miss),
// the full profile descriptor, the complete SystemConfig (geometry AND
// timing: unlike a recording, a run's IPC/cycle metrics depend on the
// latency model), the design name plus the scheme's default-config
// fragment (so cached runs never alias across a silent default-config
// change), the trace length, every scalar ReplayOptions field, whether
// the run sampled the Fig. 16 cluster-size distribution, and — for
// Thesaurus runs — the effective (normalized) Thesaurus configuration.
// Workers is deliberately excluded: results are deterministic for any
// worker count (see harness.runKey).
func RunOutputKey(p workload.Profile, sys sim.SystemConfig, design string, accesses int,
	replay sim.ReplayOptions, sample bool, thCfg *thesaurus.Config) string {
	buf := make([]byte, 0, 512)
	buf = append(buf, fmt.Sprintf("thesaurus-runoutput-v%d-r%d\x00", RunOutputVersion, Version)...)
	buf = p.AppendKey(buf)
	buf = keyU64(buf,
		uint64(sys.L1DSizeBytes), uint64(sys.L1DWays),
		uint64(sys.L2SizeBytes), uint64(sys.L2Ways),
		math.Float64bits(sys.Timing.FrequencyGHz),
		math.Float64bits(sys.Timing.CoreIPC),
		math.Float64bits(sys.Timing.L2HitCycles),
		math.Float64bits(sys.Timing.LLCHitCycles),
		math.Float64bits(sys.Timing.MemCycles),
		math.Float64bits(sys.Timing.OverlapFactor))
	if sys.DRAM != nil {
		buf = append(buf, 'D')
		buf = keyU64(buf, uint64(sys.DRAM.Banks), uint64(sys.DRAM.RowBytes),
			math.Float64bits(sys.DRAM.TRCD), math.Float64bits(sys.DRAM.TRP),
			math.Float64bits(sys.DRAM.TCAS), math.Float64bits(sys.DRAM.TBurst),
			math.Float64bits(sys.DRAM.Overhead))
	}
	buf = keyString(buf, design)
	if s, ok := scheme.Lookup(design); ok && s.AppendConfigKey != nil {
		buf = append(buf, 'C')
		buf = s.AppendConfigKey(buf)
	}
	buf = keyU64(buf, uint64(accesses),
		math.Float64bits(replay.WarmupFraction),
		uint64(replay.SampleEvery), boolU64(replay.Verify), boolU64(sample))
	if thCfg != nil {
		buf = append(buf, 'T')
		buf = keyU64(buf,
			uint64(thCfg.TagEntries), uint64(thCfg.TagWays),
			uint64(thCfg.DataSets), uint64(thCfg.SegmentsPerSet),
			uint64(thCfg.LSH.Bits), uint64(thCfg.LSH.NonZeros), thCfg.LSH.Seed,
			uint64(thCfg.BaseCacheSets), uint64(thCfg.BaseCacheWays),
			uint64(thCfg.VictimCandidates), thCfg.Seed,
			uint64(thCfg.DiffSeriesWindow),
			boolU64(thCfg.BaseCachePlainLRU), boolU64(thCfg.IntraLineFallback),
			uint64(thCfg.AdaptiveEpoch), uint64(thCfg.WriteBufferDepth))
	}
	return hashKey(buf)
}

// LinesKey derives the content address of a run whose release snapshot
// carries the LLC's resident lines (uncomp.Cache.KeepLines) from the
// RunOutputKey of the same run without them. The two runs' statistics
// are identical; only the snapshot's size differs, so they must not share
// an entry.
func LinesKey(runKey string) string {
	return hashKey(append([]byte("thesaurus-runoutput-lines\x00"), runKey...))
}

func boolU64(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// appendRunOutput encodes one run-output section: the section sub-version
// first (so run-format changes miss without a container bump), then the
// result, the snapshot with its tagged design-specific extra, and the
// cluster fractions. Counters are uvarints, floats are fixed 8-byte IEEE
// bit patterns (exact, canonical), and bools/tags are single bytes the
// decoder validates strictly — the encoding of every value is unique, so
// decode∘encode is the identity on accepted sections (the fuzz contract).
func appendRunOutput(dst []byte, r *RunOutput) []byte {
	dst = binary.AppendUvarint(dst, RunOutputVersion)
	dst = appendResult(dst, &r.Res)
	dst = appendStatsSnapshot(dst, &r.Snap)
	for _, f := range r.ClusterFracs {
		dst = appendF64(dst, f)
	}
	return dst
}

func appendF64(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

func appendLLCStats(dst []byte, s *llc.Stats) []byte {
	dst = binary.AppendUvarint(dst, s.Reads)
	dst = binary.AppendUvarint(dst, s.Writes)
	dst = binary.AppendUvarint(dst, s.ReadHits)
	dst = binary.AppendUvarint(dst, s.WriteHits)
	dst = binary.AppendUvarint(dst, s.Fills)
	return binary.AppendUvarint(dst, s.Writebacks)
}

func appendResult(dst []byte, r *sim.Result) []byte {
	dst = appendString(dst, r.Design)
	dst = binary.AppendUvarint(dst, r.Instructions)
	dst = appendLLCStats(dst, &r.LLCStats)
	dst = binary.AppendUvarint(dst, uint64(len(r.DRAM.Counts)))
	for _, c := range r.DRAM.Counts {
		dst = binary.AppendUvarint(dst, c)
	}
	dst = appendF64(dst, r.MPKI)
	dst = appendF64(dst, r.IPC)
	dst = appendF64(dst, r.Cycles)
	dst = appendF64(dst, r.CompressionRatio)
	dst = appendF64(dst, r.Occupancy)
	dst = appendF64(dst, r.AvgResidentLines)
	return binary.AppendUvarint(dst, uint64(r.Samples))
}

// appendStatsSnapshot writes the snapshot's common fields and dispatches
// the design-specific Extra to its scheme-registry codec by snapshot
// type: a nil Extra is the generic nil tag, everything else must match a
// registered codec.
func appendStatsSnapshot(dst []byte, s *llc.StatsSnapshot) []byte {
	dst = appendString(dst, s.Design)
	dst = appendLLCStats(dst, &s.Stats)
	if s.Extra == nil {
		return append(dst, extraNil)
	}
	c, ok := scheme.CodecFor(s.Extra)
	if !ok {
		// A design snapshot no registered codec owns cannot be persisted
		// faithfully; encoding it would decode to silently wrong results.
		panic(fmt.Sprintf("artifact: unencodable extra snapshot %T (register a scheme codec and bump RunOutputVersion)", s.Extra))
	}
	dst = append(dst, c.Tag)
	return c.Encode(dst, s.Extra)
}

// runDecoder threads the payload slice through the field readers so every
// site gets bounds-checked without repeating the error plumbing. err
// sticks: after the first failure every later read returns zero values.
// The exported methods implement scheme.Decoder for the registry's
// snapshot codec hooks.
type runDecoder struct {
	data []byte
	err  error
}

var _ scheme.Decoder = (*runDecoder)(nil)

// Fail implements scheme.Decoder: it marks the decode corrupt; the first
// failure sticks.
func (d *runDecoder) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: run-output "+format, append([]any{ErrCorrupt}, args...)...)
	}
}

// Err implements scheme.Decoder.
func (d *runDecoder) Err() error { return d.err }

// Uvarint implements scheme.Decoder.
func (d *runDecoder) Uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data)
	if n <= 0 {
		d.Fail("%s", what)
		return 0
	}
	d.data = d.data[n:]
	return v
}

// Count implements scheme.Decoder: a uvarint that sizes a following
// allocation, bounded by max.
func (d *runDecoder) Count(what string, max uint64) int {
	v := d.Uvarint(what)
	if d.err == nil && v > max {
		d.Fail("%s %d exceeds bound %d", what, v, max)
	}
	if d.err != nil {
		return 0
	}
	return int(v)
}

// F64 implements scheme.Decoder.
func (d *runDecoder) F64(what string) float64 {
	if d.err != nil {
		return 0
	}
	if len(d.data) < 8 {
		d.Fail("%s", what)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.data))
	d.data = d.data[8:]
	return v
}

// Bool implements scheme.Decoder: one strict 0/1 byte.
func (d *runDecoder) Bool(what string) bool {
	if d.err != nil {
		return false
	}
	if len(d.data) < 1 || d.data[0] > 1 {
		d.Fail("%s", what)
		return false
	}
	b := d.data[0] == 1
	d.data = d.data[1:]
	return b
}

// Str implements scheme.Decoder.
func (d *runDecoder) Str(what string) string {
	n := d.Count(what+" length", 1<<20)
	if d.err != nil {
		return ""
	}
	if len(d.data) < n {
		d.Fail("truncated %s", what)
		return ""
	}
	s := string(d.data[:n])
	d.data = d.data[n:]
	return s
}

// Bytes implements scheme.Decoder: exactly n raw bytes, aliasing the
// decode buffer.
func (d *runDecoder) Bytes(what string, n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.data) < n {
		d.Fail("truncated %s", what)
		return nil
	}
	b := d.data[:n]
	d.data = d.data[n:]
	return b
}

func (d *runDecoder) llcStats(s *llc.Stats) {
	s.Reads = d.Uvarint("stats reads")
	s.Writes = d.Uvarint("stats writes")
	s.ReadHits = d.Uvarint("stats read hits")
	s.WriteHits = d.Uvarint("stats write hits")
	s.Fills = d.Uvarint("stats fills")
	s.Writebacks = d.Uvarint("stats writebacks")
}

// decodeRunOutput parses one run-output section, returning the remaining
// payload. A section written under another RunOutputVersion is
// ErrVersionSkew (a miss); everything else is ErrCorrupt.
func decodeRunOutput(data []byte) (*RunOutput, []byte, error) {
	d := &runDecoder{data: data}
	v := d.Uvarint("section version")
	if d.err != nil {
		return nil, nil, d.err
	}
	if v != RunOutputVersion {
		return nil, nil, fmt.Errorf("%w: run-output section version %d, codec version %d",
			ErrVersionSkew, v, RunOutputVersion)
	}
	r := &RunOutput{}
	decodeResult(d, &r.Res)
	decodeStatsSnapshot(d, &r.Snap)
	for i := range r.ClusterFracs {
		r.ClusterFracs[i] = d.F64("cluster fraction")
	}
	if d.err != nil {
		return nil, nil, d.err
	}
	return r, d.data, nil
}

func decodeResult(d *runDecoder, r *sim.Result) {
	r.Design = d.Str("result design")
	r.Instructions = d.Uvarint("result instructions")
	d.llcStats(&r.LLCStats)
	if n := d.Count("dram counter count", uint64(len(r.DRAM.Counts))); d.err == nil && n != len(r.DRAM.Counts) {
		d.Fail("dram counter count %d, codec has %d", n, len(r.DRAM.Counts))
	}
	for i := range r.DRAM.Counts {
		r.DRAM.Counts[i] = d.Uvarint("dram counter")
	}
	r.MPKI = d.F64("mpki")
	r.IPC = d.F64("ipc")
	r.Cycles = d.F64("cycles")
	r.CompressionRatio = d.F64("compression ratio")
	r.Occupancy = d.F64("occupancy")
	r.AvgResidentLines = d.F64("avg resident lines")
	r.Samples = int(d.Uvarint("samples"))
}

// decodeStatsSnapshot reads the common fields and dispatches the Extra
// tag to its scheme-registry codec.
func decodeStatsSnapshot(d *runDecoder, s *llc.StatsSnapshot) {
	s.Design = d.Str("snapshot design")
	d.llcStats(&s.Stats)
	if d.err != nil {
		return
	}
	if len(d.data) < 1 {
		d.Fail("extra tag")
		return
	}
	tag := d.data[0]
	d.data = d.data[1:]
	if tag == extraNil {
		return
	}
	c, ok := scheme.CodecByTag(tag)
	if !ok {
		d.Fail("unknown extra tag %d", tag)
		return
	}
	s.Extra = c.Decode(d)
}

// RunOutputEqual deep-compares two run outputs (the -cache-verify path
// and the property tests). Floats compare by bit pattern: the codec
// stores exact bits, so any drift is a real divergence.
func RunOutputEqual(a, b *RunOutput) bool {
	if !resultEqual(&a.Res, &b.Res) {
		return false
	}
	for i := range a.ClusterFracs {
		if math.Float64bits(a.ClusterFracs[i]) != math.Float64bits(b.ClusterFracs[i]) {
			return false
		}
	}
	return snapshotEqual(&a.Snap, &b.Snap)
}

func resultEqual(a, b *sim.Result) bool {
	return a.Design == b.Design && a.Instructions == b.Instructions &&
		a.LLCStats == b.LLCStats && a.DRAM == b.DRAM &&
		math.Float64bits(a.MPKI) == math.Float64bits(b.MPKI) &&
		math.Float64bits(a.IPC) == math.Float64bits(b.IPC) &&
		math.Float64bits(a.Cycles) == math.Float64bits(b.Cycles) &&
		math.Float64bits(a.CompressionRatio) == math.Float64bits(b.CompressionRatio) &&
		math.Float64bits(a.Occupancy) == math.Float64bits(b.Occupancy) &&
		math.Float64bits(a.AvgResidentLines) == math.Float64bits(b.AvgResidentLines) &&
		a.Samples == b.Samples
}

// snapshotEqual deep-compares two snapshots via the Extras' shared
// scheme codec; Extras of different codecs (or of no registered codec)
// never compare equal.
func snapshotEqual(a, b *llc.StatsSnapshot) bool {
	if a.Design != b.Design || a.Stats != b.Stats {
		return false
	}
	if a.Extra == nil || b.Extra == nil {
		return a.Extra == nil && b.Extra == nil
	}
	ca, ok := scheme.CodecFor(a.Extra)
	if !ok {
		return false
	}
	if cb, ok := scheme.CodecFor(b.Extra); !ok || cb != ca {
		return false
	}
	return ca.Equal(a.Extra, b.Extra)
}
