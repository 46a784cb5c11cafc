// Built-in design registrations. Registration order is report order:
// the first six entries reproduce the pre-registry design list (and its
// report columns) exactly; CPack and DISH append after it.
package scheme

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/bdi"
	"repro/internal/bdicache"
	"repro/internal/cpack"
	"repro/internal/dedupcache"
	"repro/internal/diffenc"
	"repro/internal/dish"
	"repro/internal/ideal"
	"repro/internal/line"
	"repro/internal/llc"
	"repro/internal/lsh"
	"repro/internal/memory"
	"repro/internal/stats"
	"repro/internal/thesaurus"
	"repro/internal/uncomp"
)

// Wire tags of the built-in codecs. Tag 0 is the generic nil-Extra tag
// written by the artifact codec itself; these continue the numbering the
// pre-registry codec used, and new tags require an
// artifact.RunOutputVersion bump.
const (
	tagUncomp    = 1
	tagBDI       = 2
	tagDedup     = 3
	tagThesaurus = 4
	tagCPack     = 5
	tagDISH      = 6
)

// Decode-size bounds, mirroring the artifact codec's limits: a line pool
// larger than maxLinePool (2^30 lines = 64GiB) or a diff series longer
// than maxDiffSeries (the recording event bound) is corruption, not data.
const (
	maxLinePool   = 1 << 30
	maxDiffSeries = 1 << 32
)

// Canonical append helpers shared by the codec hooks; they mirror the
// artifact codec's primitives bit for bit (counters as uvarints, floats
// as fixed 8-byte IEEE patterns, bools as one strict byte).
func appendU(dst []byte, v uint64) []byte { return binary.AppendUvarint(dst, v) }

func appendF64(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// Key-fragment helpers for AppendConfigKey hooks: fixed 8-byte values
// and length-prefixed strings, matching the artifact key primitives.
func keyU64(dst []byte, vs ...uint64) []byte {
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	return dst
}

func keyString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(s)))
	return append(dst, s...)
}

// uncompCodec persists *uncomp.Snapshot; Baseline and 2x Baseline share
// it (one snapshot type, one tag).
var uncompCodec = &ExtraCodec{
	Tag: tagUncomp,
	Matches: func(x llc.ExtraSnapshot) bool {
		_, ok := x.(*uncomp.Snapshot)
		return ok
	},
	Encode: func(dst []byte, x llc.ExtraSnapshot) []byte {
		s := x.(*uncomp.Snapshot)
		dst = slices.Grow(dst, 1+binary.MaxVarintLen64+len(s.Lines)*line.Size)
		dst = appendBool(dst, s.Lines != nil)
		dst = appendU(dst, uint64(len(s.Lines)))
		for i := range s.Lines {
			dst = append(dst, s.Lines[i][:]...)
		}
		return dst
	},
	Decode: func(d Decoder) llc.ExtraSnapshot {
		x := &uncomp.Snapshot{}
		present := d.Bool("uncomp lines presence")
		n := d.Count("uncomp line count", maxLinePool)
		if d.Err() == nil && !present && n != 0 {
			d.Fail("absent uncomp lines with count %d", n)
		}
		if present && d.Err() == nil {
			raw := d.Bytes("uncomp lines", n*line.Size)
			if d.Err() == nil {
				x.Lines = make([]line.Line, n)
				for i := range x.Lines {
					copy(x.Lines[i][:], raw[i*line.Size:])
				}
			}
		}
		return x
	},
	Equal: func(a, b llc.ExtraSnapshot) bool {
		x, y := a.(*uncomp.Snapshot), b.(*uncomp.Snapshot)
		if (x.Lines == nil) != (y.Lines == nil) || len(x.Lines) != len(y.Lines) {
			return false
		}
		for i := range x.Lines {
			if x.Lines[i] != y.Lines[i] {
				return false
			}
		}
		return true
	},
}

var bdiCodec = &ExtraCodec{
	Tag: tagBDI,
	Matches: func(x llc.ExtraSnapshot) bool {
		_, ok := x.(*bdicache.Snapshot)
		return ok
	},
	Encode: func(dst []byte, x llc.ExtraSnapshot) []byte {
		s := x.(*bdicache.Snapshot)
		dst = appendU(dst, s.Extra.Insertions)
		dst = appendU(dst, s.Extra.Compressed)
		dst = appendU(dst, s.Extra.SpaceEvictions)
		dst = appendBool(dst, s.Extra.ByKind != nil)
		kinds := make([]int, 0, len(s.Extra.ByKind))
		for k := range s.Extra.ByKind {
			kinds = append(kinds, int(k))
		}
		sort.Ints(kinds)
		dst = appendU(dst, uint64(len(kinds)))
		for _, k := range kinds {
			dst = appendU(dst, uint64(k))
			dst = appendU(dst, s.Extra.ByKind[bdi.Kind(k)])
		}
		return dst
	},
	Decode: func(d Decoder) llc.ExtraSnapshot {
		x := &bdicache.Snapshot{}
		x.Extra.Insertions = d.Uvarint("bdi insertions")
		x.Extra.Compressed = d.Uvarint("bdi compressed")
		x.Extra.SpaceEvictions = d.Uvarint("bdi space evictions")
		present := d.Bool("bdi bykind presence")
		n := d.Count("bdi kind count", 256)
		if d.Err() == nil && !present && n != 0 {
			d.Fail("absent bdi histogram with %d kinds", n)
		}
		if present && d.Err() == nil {
			x.Extra.ByKind = make(map[bdi.Kind]uint64, n)
			prev := -1
			for i := 0; i < n; i++ {
				k := int(d.Uvarint("bdi kind"))
				c := d.Uvarint("bdi kind count")
				if d.Err() != nil {
					return x
				}
				// Strictly ascending kinds keep the encoding canonical
				// (decode∘encode identity) and the map keys unique; the
				// range bound is the Kind representation (uint8), not the
				// current enum, so new kinds don't invalidate old files.
				if k <= prev || k > 0xff {
					d.Fail("bdi kind %d out of order or range", k)
					return x
				}
				prev = k
				x.Extra.ByKind[bdi.Kind(k)] = c
			}
		}
		return x
	},
	Equal: func(a, b llc.ExtraSnapshot) bool {
		x, y := a.(*bdicache.Snapshot), b.(*bdicache.Snapshot)
		if x.Extra.Insertions != y.Extra.Insertions ||
			x.Extra.Compressed != y.Extra.Compressed ||
			x.Extra.SpaceEvictions != y.Extra.SpaceEvictions ||
			(x.Extra.ByKind == nil) != (y.Extra.ByKind == nil) ||
			len(x.Extra.ByKind) != len(y.Extra.ByKind) {
			return false
		}
		for k, v := range x.Extra.ByKind {
			if y.Extra.ByKind[k] != v {
				return false
			}
		}
		return true
	},
}

var dedupCodec = &ExtraCodec{
	Tag: tagDedup,
	Matches: func(x llc.ExtraSnapshot) bool {
		_, ok := x.(*dedupcache.Snapshot)
		return ok
	},
	Encode: func(dst []byte, x llc.ExtraSnapshot) []byte {
		s := x.(*dedupcache.Snapshot)
		dst = appendU(dst, s.Extra.Insertions)
		dst = appendU(dst, s.Extra.Deduped)
		dst = appendU(dst, s.Extra.FalseMatches)
		return appendU(dst, s.Extra.ListEvictions)
	},
	Decode: func(d Decoder) llc.ExtraSnapshot {
		x := &dedupcache.Snapshot{}
		x.Extra.Insertions = d.Uvarint("dedup insertions")
		x.Extra.Deduped = d.Uvarint("dedup deduped")
		x.Extra.FalseMatches = d.Uvarint("dedup false matches")
		x.Extra.ListEvictions = d.Uvarint("dedup list evictions")
		return x
	},
	Equal: func(a, b llc.ExtraSnapshot) bool {
		x, y := a.(*dedupcache.Snapshot), b.(*dedupcache.Snapshot)
		return x.Extra == y.Extra
	},
}

var thesaurusCodec = &ExtraCodec{
	Tag: tagThesaurus,
	Matches: func(x llc.ExtraSnapshot) bool {
		_, ok := x.(*thesaurus.Snapshot)
		return ok
	},
	Encode: func(dst []byte, x llc.ExtraSnapshot) []byte {
		s := x.(*thesaurus.Snapshot)
		c := &s.Cfg
		dst = appendU(dst, uint64(c.TagEntries))
		dst = appendU(dst, uint64(c.TagWays))
		dst = appendU(dst, uint64(c.DataSets))
		dst = appendU(dst, uint64(c.SegmentsPerSet))
		dst = appendU(dst, uint64(c.LSH.Bits))
		dst = appendU(dst, uint64(c.LSH.NonZeros))
		dst = appendU(dst, c.LSH.Seed)
		dst = appendU(dst, uint64(c.BaseCacheSets))
		dst = appendU(dst, uint64(c.BaseCacheWays))
		dst = appendU(dst, uint64(c.VictimCandidates))
		dst = appendU(dst, c.Seed)
		dst = appendU(dst, uint64(c.DiffSeriesWindow))
		dst = appendBool(dst, c.BaseCachePlainLRU)
		dst = appendBool(dst, c.IntraLineFallback)
		dst = appendU(dst, uint64(c.AdaptiveEpoch))
		dst = appendU(dst, uint64(c.WriteBufferDepth))

		e := &s.Extra
		dst = appendU(dst, e.Insertions)
		dst = appendU(dst, e.Reencodes)
		dst = appendU(dst, e.Placements)
		dst = appendU(dst, uint64(len(e.ByFormat)))
		for _, v := range e.ByFormat {
			dst = appendU(dst, v)
		}
		dst = appendU(dst, e.Compressible)
		dst = appendU(dst, e.RawDueToBaseMiss)
		dst = appendU(dst, e.DiffBytesSum)
		dst = appendU(dst, e.DiffCount)
		dst = appendU(dst, e.DataEvictions)

		dst = appendU(dst, s.Adaptive.Epochs)
		dst = appendU(dst, s.Adaptive.DisabledEpochs)
		dst = appendU(dst, s.Adaptive.DisabledPlacements)

		dst = appendBool(dst, s.DiffSeries != nil)
		dst = appendU(dst, uint64(len(s.DiffSeries)))
		for _, f := range s.DiffSeries {
			dst = appendF64(dst, f)
		}

		dst = appendU(dst, s.BaseCache.ReadPath.Hits)
		dst = appendU(dst, s.BaseCache.ReadPath.Total)
		dst = appendU(dst, s.BaseCache.InsertPath.Hits)
		dst = appendU(dst, s.BaseCache.InsertPath.Total)
		dst = appendU(dst, uint64(s.BaseCache.Entries))
		dst = appendU(dst, uint64(s.BaseCache.StorageBytes))
		dst = appendU(dst, uint64(s.LiveClusters))
		return appendU(dst, uint64(s.ValidClusters))
	},
	Decode: func(d Decoder) llc.ExtraSnapshot {
		s := &thesaurus.Snapshot{}
		c := &s.Cfg
		c.TagEntries = int(d.Uvarint("cfg tag entries"))
		c.TagWays = int(d.Uvarint("cfg tag ways"))
		c.DataSets = int(d.Uvarint("cfg data sets"))
		c.SegmentsPerSet = int(d.Uvarint("cfg segments per set"))
		c.LSH = lsh.Config{
			Bits:     int(d.Uvarint("cfg lsh bits")),
			NonZeros: int(d.Uvarint("cfg lsh nonzeros")),
			Seed:     d.Uvarint("cfg lsh seed"),
		}
		c.BaseCacheSets = int(d.Uvarint("cfg base sets"))
		c.BaseCacheWays = int(d.Uvarint("cfg base ways"))
		c.VictimCandidates = int(d.Uvarint("cfg victim candidates"))
		c.Seed = d.Uvarint("cfg seed")
		c.DiffSeriesWindow = int(d.Uvarint("cfg diff window"))
		c.BaseCachePlainLRU = d.Bool("cfg plain lru")
		c.IntraLineFallback = d.Bool("cfg intra fallback")
		c.AdaptiveEpoch = int(d.Uvarint("cfg adaptive epoch"))
		c.WriteBufferDepth = int(d.Uvarint("cfg write buffer depth"))

		e := &s.Extra
		e.Insertions = d.Uvarint("extra insertions")
		e.Reencodes = d.Uvarint("extra reencodes")
		e.Placements = d.Uvarint("extra placements")
		if n := d.Count("format count", uint64(len(e.ByFormat))); d.Err() == nil && n != len(e.ByFormat) {
			d.Fail("format count %d, codec has %d", n, diffenc.NumFormats)
		}
		for i := range e.ByFormat {
			e.ByFormat[i] = d.Uvarint("format counter")
		}
		e.Compressible = d.Uvarint("extra compressible")
		e.RawDueToBaseMiss = d.Uvarint("extra raw due to base miss")
		e.DiffBytesSum = d.Uvarint("extra diff bytes sum")
		e.DiffCount = d.Uvarint("extra diff count")
		e.DataEvictions = d.Uvarint("extra data evictions")

		s.Adaptive.Epochs = d.Uvarint("adaptive epochs")
		s.Adaptive.DisabledEpochs = d.Uvarint("adaptive disabled epochs")
		s.Adaptive.DisabledPlacements = d.Uvarint("adaptive disabled placements")

		present := d.Bool("diff series presence")
		n := d.Count("diff series length", maxDiffSeries)
		if d.Err() == nil && !present && n != 0 {
			d.Fail("absent diff series with length %d", n)
		}
		if present && d.Err() == nil {
			raw := d.Bytes("diff series", n*8)
			if d.Err() == nil {
				s.DiffSeries = make([]float64, n)
				for i := range s.DiffSeries {
					s.DiffSeries[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
				}
			}
		}

		s.BaseCache = thesaurus.BaseCacheSnapshot{
			ReadPath:     stats.Counter{Hits: d.Uvarint("base read hits"), Total: d.Uvarint("base read total")},
			InsertPath:   stats.Counter{Hits: d.Uvarint("base insert hits"), Total: d.Uvarint("base insert total")},
			Entries:      int(d.Uvarint("base entries")),
			StorageBytes: int(d.Uvarint("base storage bytes")),
		}
		s.LiveClusters = int(d.Uvarint("live clusters"))
		s.ValidClusters = int(d.Uvarint("valid clusters"))
		return s
	},
	Equal: func(a, b llc.ExtraSnapshot) bool {
		x, y := a.(*thesaurus.Snapshot), b.(*thesaurus.Snapshot)
		if x.Cfg != y.Cfg || x.Extra != y.Extra || x.Adaptive != y.Adaptive ||
			x.BaseCache != y.BaseCache || x.LiveClusters != y.LiveClusters ||
			x.ValidClusters != y.ValidClusters ||
			(x.DiffSeries == nil) != (y.DiffSeries == nil) ||
			len(x.DiffSeries) != len(y.DiffSeries) {
			return false
		}
		for i := range x.DiffSeries {
			if math.Float64bits(x.DiffSeries[i]) != math.Float64bits(y.DiffSeries[i]) {
				return false
			}
		}
		return true
	},
}

var cpackCodec = &ExtraCodec{
	Tag: tagCPack,
	Matches: func(x llc.ExtraSnapshot) bool {
		_, ok := x.(*cpack.Snapshot)
		return ok
	},
	Encode: func(dst []byte, x llc.ExtraSnapshot) []byte {
		s := x.(*cpack.Snapshot)
		dst = appendU(dst, s.Extra.Insertions)
		dst = appendU(dst, s.Extra.Compressed)
		dst = appendU(dst, s.Extra.SpaceEvictions)
		dst = appendU(dst, uint64(len(s.Extra.ByPattern)))
		for _, v := range s.Extra.ByPattern {
			dst = appendU(dst, v)
		}
		return dst
	},
	Decode: func(d Decoder) llc.ExtraSnapshot {
		x := &cpack.Snapshot{}
		x.Extra.Insertions = d.Uvarint("cpack insertions")
		x.Extra.Compressed = d.Uvarint("cpack compressed")
		x.Extra.SpaceEvictions = d.Uvarint("cpack space evictions")
		if n := d.Count("cpack pattern count", uint64(len(x.Extra.ByPattern))); d.Err() == nil && n != len(x.Extra.ByPattern) {
			d.Fail("cpack pattern count %d, codec has %d", n, cpack.NumPatterns)
		}
		for i := range x.Extra.ByPattern {
			x.Extra.ByPattern[i] = d.Uvarint("cpack pattern counter")
		}
		return x
	},
	Equal: func(a, b llc.ExtraSnapshot) bool {
		x, y := a.(*cpack.Snapshot), b.(*cpack.Snapshot)
		return x.Extra == y.Extra
	},
}

var dishCodec = &ExtraCodec{
	Tag: tagDISH,
	Matches: func(x llc.ExtraSnapshot) bool {
		_, ok := x.(*dish.Snapshot)
		return ok
	},
	Encode: func(dst []byte, x llc.ExtraSnapshot) []byte {
		s := x.(*dish.Snapshot)
		dst = appendU(dst, s.Extra.Insertions)
		dst = appendU(dst, s.Extra.Scheme1Fills)
		dst = appendU(dst, s.Extra.Scheme2Fills)
		dst = appendU(dst, s.Extra.UncompressedFills)
		dst = appendU(dst, s.Extra.OTFSelections)
		return appendU(dst, s.Extra.SpaceEvictions)
	},
	Decode: func(d Decoder) llc.ExtraSnapshot {
		x := &dish.Snapshot{}
		x.Extra.Insertions = d.Uvarint("dish insertions")
		x.Extra.Scheme1Fills = d.Uvarint("dish scheme1 fills")
		x.Extra.Scheme2Fills = d.Uvarint("dish scheme2 fills")
		x.Extra.UncompressedFills = d.Uvarint("dish uncompressed fills")
		x.Extra.OTFSelections = d.Uvarint("dish otf selections")
		x.Extra.SpaceEvictions = d.Uvarint("dish space evictions")
		return x
	},
	Equal: func(a, b llc.ExtraSnapshot) bool {
		x, y := a.(*dish.Snapshot), b.(*dish.Snapshot)
		return x.Extra == y.Extra
	},
}

func init() {
	Register(Scheme{
		Name: "Baseline",
		Build: func(mem *memory.Store) (llc.Cache, error) {
			return uncomp.New("Baseline", uncomp.DefaultConfig(), mem), nil
		},
		Codec: uncompCodec,
		AppendConfigKey: func(dst []byte) []byte {
			cfg := uncomp.DefaultConfig()
			dst = keyU64(dst, uint64(cfg.SizeBytes), uint64(cfg.Ways))
			return keyString(dst, cfg.Policy)
		},
	})
	Register(Scheme{
		Name: "Dedup",
		Build: func(mem *memory.Store) (llc.Cache, error) {
			return dedupcache.New(dedupcache.DefaultConfig(), mem)
		},
		Codec: dedupCodec,
		AppendConfigKey: func(dst []byte) []byte {
			cfg := dedupcache.DefaultConfig()
			return keyU64(dst, uint64(cfg.TagEntries), uint64(cfg.TagWays),
				uint64(cfg.DataEntries), uint64(cfg.HashEntries))
		},
	})
	Register(Scheme{
		Name: "BDI",
		Build: func(mem *memory.Store) (llc.Cache, error) {
			return bdicache.New(bdicache.DefaultConfig(), mem)
		},
		Codec: bdiCodec,
		AppendConfigKey: func(dst []byte) []byte {
			cfg := bdicache.DefaultConfig()
			return keyU64(dst, uint64(cfg.Sets), uint64(cfg.TagWays), uint64(cfg.DataWays))
		},
	})
	Register(Scheme{
		Name: "Thesaurus",
		Build: func(mem *memory.Store) (llc.Cache, error) {
			return thesaurus.New(thesaurus.DefaultConfig(), mem)
		},
		Codec: thesaurusCodec,
		// AppendConfigKey stays nil: the harness keys the *effective*
		// (normalized, possibly swept) Thesaurus config explicitly, which
		// subsumes the default.
		Summary: func(x llc.ExtraSnapshot) string {
			ts, ok := x.(*thesaurus.Snapshot)
			if !ok {
				return ""
			}
			e := ts.Extra
			return fmt.Sprintf("  comp%%=%.1f diff=%.1fB bcache=%.3f fmt[raw,b+d,0+d,base,z]=%v fps=%d/%d",
				100*e.CompressibleFraction(), e.AvgDiffBytes(), ts.BaseCache.HitRate(), e.ByFormat,
				ts.LiveClusters, ts.ValidClusters)
		},
	})
	Register(Scheme{
		Name: "Ideal",
		Build: func(mem *memory.Store) (llc.Cache, error) {
			return ideal.New(ideal.DefaultConfig(), mem), nil
		},
		// Codec stays nil: the ideal model releases no Extra, so its
		// snapshots always carry the generic nil tag.
		AppendConfigKey: func(dst []byte) []byte {
			cfg := ideal.DefaultConfig()
			return keyU64(dst, uint64(cfg.TagEntries), uint64(cfg.TagWays),
				uint64(cfg.DataBytes), cfg.Seed)
		},
	})
	Register(Scheme{
		Name: "2x Baseline",
		Build: func(mem *memory.Store) (llc.Cache, error) {
			cfg := uncomp.DefaultConfig()
			cfg.SizeBytes *= 2
			return uncomp.New("2x Baseline", cfg, mem), nil
		},
		Codec: uncompCodec,
		AppendConfigKey: func(dst []byte) []byte {
			cfg := uncomp.DefaultConfig()
			cfg.SizeBytes *= 2
			dst = keyU64(dst, uint64(cfg.SizeBytes), uint64(cfg.Ways))
			return keyString(dst, cfg.Policy)
		},
	})
	Register(Scheme{
		Name: "CPack",
		Build: func(mem *memory.Store) (llc.Cache, error) {
			return cpack.New(cpack.DefaultConfig(), mem)
		},
		Codec: cpackCodec,
		AppendConfigKey: func(dst []byte) []byte {
			cfg := cpack.DefaultConfig()
			return keyU64(dst, uint64(cfg.Sets), uint64(cfg.TagWays), uint64(cfg.DataWays))
		},
		Summary: func(x llc.ExtraSnapshot) string {
			s, ok := x.(*cpack.Snapshot)
			if !ok {
				return ""
			}
			e := s.Extra
			return fmt.Sprintf("  pat[zzzz,zzzx,mmmm,mmmx,mmxx,xxxx]=%v", e.ByPattern)
		},
	})
	Register(Scheme{
		Name: "DISH",
		Build: func(mem *memory.Store) (llc.Cache, error) {
			return dish.New(dish.DefaultConfig(), mem)
		},
		Codec: dishCodec,
		AppendConfigKey: func(dst []byte) []byte {
			cfg := dish.DefaultConfig()
			return keyU64(dst, uint64(cfg.Sets), uint64(cfg.TagWays), uint64(cfg.DataWays))
		},
		Summary: func(x llc.ExtraSnapshot) string {
			s, ok := x.(*dish.Snapshot)
			if !ok {
				return ""
			}
			e := s.Extra
			return fmt.Sprintf("  fills[cpack,bdi,raw]=%d/%d/%d otf=%d",
				e.Scheme1Fills, e.Scheme2Fills, e.UncompressedFills, e.OTFSelections)
		},
	})
}
