package artifact

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/line"
	"repro/internal/llc"
	"repro/internal/scheme"
	"repro/internal/sim"
	"repro/internal/thesaurus"
	"repro/internal/uncomp"
	"repro/internal/workload"
)

// RunOutputVersion versions the run-output section independently of the
// container codec (Version): the section serializes the design snapshot
// structs field by field, so it must be bumped whenever sim.Result,
// llc.StatsSnapshot, or any release-snapshot type gains, loses, or
// reinterprets a field — and whenever replay semantics change in a way
// the recording codec version does not already capture. A new snapshot
// type (a new Extra tag) is also a bump; a new design that releases
// llc.Counters is not, because its counters already have a tag. The
// version is both hashed into every run key and embedded in the section,
// so a bump turns every cached run into a clean miss (never an error).
// TestRunOutputWireFormatPinned holds the digests of this version's
// encodings.
//
// v2: snapshot codecs moved to the scheme registry, CPack (tag 5) and
// DISH (tag 6) designs added, per-scheme config folded into run keys.
// v3: Baseline and 2x Baseline snapshots carry their resident lines only
// when the run asked for them (keyed by LinesKey); a v2 entry under a
// default run's key still holds them and would fail -cache-verify.
// v4: Dedup, BDI, CPack and DISH release llc.Counters under one codec
// (tag 7); their per-design tags 2, 3, 5 and 6 are retired.
// v5: the Thesaurus snapshot no longer carries its configuration, its
// adaptive-detector counters or its base-cache entry count (no report
// read them; the run key is the configuration's one record), and the
// write-buffer depth left the configuration.
const RunOutputVersion = 5

// RunOutput is a whole memoized run: the replay metrics, the released
// cache's statistics snapshot, and the Fig. 16 cluster-size fractions.
// harness.RunOutput is this type.
type RunOutput struct {
	Res          sim.Result
	Snap         llc.StatsSnapshot
	ClusterFracs [4]float64
}

// Clone returns a deep copy sharing no mutable state with o.
func (o *RunOutput) Clone() *RunOutput {
	cp := *o
	cp.Snap = o.Snap.Clone()
	return &cp
}

// Wire tags of a snapshot's Extra, one per release-snapshot type: Baseline
// and 2x Baseline release *uncomp.Snapshot, Thesaurus *thesaurus.Snapshot,
// and Dedup, BDI, CPack and DISH llc.Counters; Ideal releases none. Tags
// 2, 3, 5 and 6 are retired: they held the BDI, Dedup, CPack and DISH
// snapshots before those designs released llc.Counters (v4). The decoder
// rejects any other tag as corrupt.
const (
	extraNil       = 0
	extraUncomp    = 1
	extraThesaurus = 4
	extraCounters  = 7
)

// maxCounters bounds a decoded counter view, far above any design's
// dozen; a larger count is corruption, not data. A line snapshot is
// bounded like the recorded section's line pool (maxPool) and a diff
// series like its event stream (maxEvents).
const maxCounters = 1 << 10

// RunOutputKey derives the content address of a whole run: the SHA-256 of
// every input the replay's result depends on — both codec versions (the
// recording feeds the run, so recording-semantics bumps must also miss),
// the full profile descriptor, the complete SystemConfig (the private-level
// geometry and every Timing constant: unlike a recording, a run's
// IPC/cycle metrics depend on the timing model), the design name plus the
// scheme's default-config fragment (so cached runs never alias across a
// silent default-config change), the trace length, every scalar
// ReplayOptions field, whether the run sampled the Fig. 16 cluster-size
// distribution, and — for Thesaurus runs — the effective (normalized)
// Thesaurus configuration. Workers is deliberately excluded: results are
// deterministic for any worker count (see harness.runKey). So is a DRAM
// model attached to the backing store (memory.Store.AttachLatencyModel):
// campaign runs never attach one, so their memory latency is always
// Timing.MemCycles.
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
			uint64(thCfg.AdaptiveEpoch))
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

// appendStatsSnapshot writes the snapshot's common fields, then the
// Extra's tag and fields by the Extra's Go type, never by the design name:
// snapshots must round-trip even when carried by synthetic or renamed
// designs.
func appendStatsSnapshot(dst []byte, s *llc.StatsSnapshot) []byte {
	dst = appendString(dst, s.Design)
	dst = appendLLCStats(dst, &s.Stats)
	switch x := s.Extra.(type) {
	case nil:
		return append(dst, extraNil)
	case *uncomp.Snapshot:
		return appendUncomp(append(dst, extraUncomp), x)
	case *thesaurus.Snapshot:
		return appendThesaurus(append(dst, extraThesaurus), x)
	case llc.Counters:
		return appendCounters(append(dst, extraCounters), x)
	}
	// A snapshot type without a tag cannot be persisted faithfully;
	// encoding it would decode to silently wrong results.
	panic(fmt.Sprintf("artifact: unencodable extra snapshot %T (add a tag and bump RunOutputVersion)", s.Extra))
}

// appendUncomp writes whether the resident lines were kept, their count,
// and their bytes.
func appendUncomp(dst []byte, s *uncomp.Snapshot) []byte {
	dst = slices.Grow(dst, 1+binary.MaxVarintLen64+len(s.Lines)*line.Size)
	dst = appendBool(dst, s.Lines != nil)
	dst = binary.AppendUvarint(dst, uint64(len(s.Lines)))
	for i := range s.Lines {
		dst = append(dst, s.Lines[i][:]...)
	}
	return dst
}

func appendThesaurus(dst []byte, s *thesaurus.Snapshot) []byte {
	e := &s.Extra
	dst = binary.AppendUvarint(dst, e.Insertions)
	dst = binary.AppendUvarint(dst, e.Reencodes)
	dst = binary.AppendUvarint(dst, e.Placements)
	dst = binary.AppendUvarint(dst, uint64(len(e.ByFormat)))
	for _, v := range e.ByFormat {
		dst = binary.AppendUvarint(dst, v)
	}
	dst = binary.AppendUvarint(dst, e.Compressible)
	dst = binary.AppendUvarint(dst, e.RawDueToBaseMiss)
	dst = binary.AppendUvarint(dst, e.DiffBytesSum)
	dst = binary.AppendUvarint(dst, e.DiffCount)
	dst = binary.AppendUvarint(dst, e.DataEvictions)

	dst = appendBool(dst, s.DiffSeries != nil)
	dst = binary.AppendUvarint(dst, uint64(len(s.DiffSeries)))
	for _, f := range s.DiffSeries {
		dst = appendF64(dst, f)
	}

	b := &s.BaseCache
	dst = binary.AppendUvarint(dst, b.ReadPath.Hits)
	dst = binary.AppendUvarint(dst, b.ReadPath.Total)
	dst = binary.AppendUvarint(dst, b.InsertPath.Hits)
	dst = binary.AppendUvarint(dst, b.InsertPath.Total)
	dst = binary.AppendUvarint(dst, uint64(b.StorageBytes))
	dst = binary.AppendUvarint(dst, uint64(s.LiveClusters))
	return binary.AppendUvarint(dst, uint64(s.ValidClusters))
}

// appendCounters writes the count, then each counter's name and value. A
// nil and an empty view encode alike.
func appendCounters(dst []byte, cs llc.Counters) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(cs)))
	for _, c := range cs {
		dst = appendString(dst, c.Name)
		dst = binary.AppendUvarint(dst, c.Value)
	}
	return dst
}

// runDecoder threads the payload slice through the field readers so every
// site gets bounds-checked without repeating the error plumbing. err
// sticks: after the first failure every later read returns zero values,
// so decoders read fields linearly and check err once at the end.
type runDecoder struct {
	data []byte
	err  error
}

// Fail marks the decode corrupt; the first failure sticks.
func (d *runDecoder) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: run-output "+format, append([]any{ErrCorrupt}, args...)...)
	}
}

// Uvarint reads one varint counter; what names the field in errors.
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

// Count reads a uvarint that sizes a following allocation, failing the
// decode when it exceeds max.
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

// F64 reads a fixed 8-byte IEEE bit pattern.
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

// Bool reads one strict 0/1 byte.
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

// Str reads a length-prefixed string.
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

// Bytes reads exactly n raw bytes; the returned slice aliases the decode
// buffer.
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

// decodeStatsSnapshot reads the common fields and the Extra its tag
// names.
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
	switch tag {
	case extraNil:
	case extraUncomp:
		s.Extra = d.uncomp()
	case extraThesaurus:
		s.Extra = d.thesaurus()
	case extraCounters:
		s.Extra = d.counters()
	default:
		d.Fail("unknown extra tag %d", tag)
	}
}

func (d *runDecoder) uncomp() *uncomp.Snapshot {
	x := &uncomp.Snapshot{}
	present := d.Bool("uncomp lines presence")
	n := d.Count("uncomp line count", maxPool)
	if d.err == nil && !present && n != 0 {
		d.Fail("absent uncomp lines with count %d", n)
	}
	if present && d.err == nil {
		raw := d.Bytes("uncomp lines", n*line.Size)
		if d.err == nil {
			x.Lines = make([]line.Line, n)
			for i := range x.Lines {
				copy(x.Lines[i][:], raw[i*line.Size:])
			}
		}
	}
	return x
}

func (d *runDecoder) thesaurus() *thesaurus.Snapshot {
	s := &thesaurus.Snapshot{}
	e := &s.Extra
	e.Insertions = d.Uvarint("extra insertions")
	e.Reencodes = d.Uvarint("extra reencodes")
	e.Placements = d.Uvarint("extra placements")
	if n := d.Count("format count", uint64(len(e.ByFormat))); d.err == nil && n != len(e.ByFormat) {
		d.Fail("format count %d, codec has %d", n, len(e.ByFormat))
	}
	for i := range e.ByFormat {
		e.ByFormat[i] = d.Uvarint("format counter")
	}
	e.Compressible = d.Uvarint("extra compressible")
	e.RawDueToBaseMiss = d.Uvarint("extra raw due to base miss")
	e.DiffBytesSum = d.Uvarint("extra diff bytes sum")
	e.DiffCount = d.Uvarint("extra diff count")
	e.DataEvictions = d.Uvarint("extra data evictions")

	present := d.Bool("diff series presence")
	n := d.Count("diff series length", maxEvents)
	if d.err == nil && !present && n != 0 {
		d.Fail("absent diff series with length %d", n)
	}
	if present && d.err == nil {
		raw := d.Bytes("diff series", n*8)
		if d.err == nil {
			s.DiffSeries = make([]float64, n)
			for i := range s.DiffSeries {
				s.DiffSeries[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
			}
		}
	}

	b := &s.BaseCache
	b.ReadPath.Hits = d.Uvarint("base read hits")
	b.ReadPath.Total = d.Uvarint("base read total")
	b.InsertPath.Hits = d.Uvarint("base insert hits")
	b.InsertPath.Total = d.Uvarint("base insert total")
	b.StorageBytes = int(d.Uvarint("base storage bytes"))
	s.LiveClusters = int(d.Uvarint("live clusters"))
	s.ValidClusters = int(d.Uvarint("valid clusters"))
	return s
}

func (d *runDecoder) counters() llc.Counters {
	n := d.Count("counter count", maxCounters)
	cs := make(llc.Counters, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		cs = append(cs, llc.Counter{Name: d.Str("counter name"), Value: d.Uvarint("counter value")})
	}
	return cs
}

// RunOutputEqual reports whether two run outputs have the same canonical
// encoding (the -cache-verify path and the tests). The codec is the one
// list of persisted fields and stores floats as exact bits, so this
// compares every persisted field, floats by bit pattern.
func RunOutputEqual(a, b *RunOutput) bool {
	return bytes.Equal(appendRunOutput(nil, a), appendRunOutput(nil, b))
}
