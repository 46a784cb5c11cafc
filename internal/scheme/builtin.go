// Built-in design registrations. Registration order is report order:
// the first six entries reproduce the pre-registry design list (and its
// report columns) exactly; CPack and DISH append after it.
package scheme

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/dedupcache"
	"repro/internal/diffenc"
	"repro/internal/ideal"
	"repro/internal/line"
	"repro/internal/llc"
	"repro/internal/memory"
	"repro/internal/segcache"
	"repro/internal/stats"
	"repro/internal/thesaurus"
	"repro/internal/uncomp"
)

// Wire tags of the built-in codecs. Tag 0 is the generic nil-Extra tag
// written by the artifact codec itself; these continue the numbering the
// pre-registry codec used, and new tags require an
// artifact.RunOutputVersion bump. Tags 2, 3, 5 and 6 are retired: they
// held the BDI, Dedup, CPack and DISH snapshots before those designs
// released llc.Counters (RunOutputVersion 4).
const (
	tagUncomp    = 1
	tagThesaurus = 4
	tagCounters  = 7
)

// Decode-size bounds, mirroring the artifact codec's limits: a line pool
// larger than maxLinePool (2^30 lines = 64GiB), a diff series longer
// than maxDiffSeries (the recording event bound) or a counter snapshot
// longer than maxCounters (far above any design's dozen) is corruption,
// not data.
const (
	maxLinePool   = 1 << 30
	maxDiffSeries = 1 << 32
	maxCounters   = 1 << 10
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

var thesaurusCodec = &ExtraCodec{
	Tag: tagThesaurus,
	Matches: func(x llc.ExtraSnapshot) bool {
		_, ok := x.(*thesaurus.Snapshot)
		return ok
	},
	Encode: func(dst []byte, x llc.ExtraSnapshot) []byte {
		s := x.(*thesaurus.Snapshot)
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

		dst = appendBool(dst, s.DiffSeries != nil)
		dst = appendU(dst, uint64(len(s.DiffSeries)))
		for _, f := range s.DiffSeries {
			dst = appendF64(dst, f)
		}

		dst = appendU(dst, s.BaseCache.ReadPath.Hits)
		dst = appendU(dst, s.BaseCache.ReadPath.Total)
		dst = appendU(dst, s.BaseCache.InsertPath.Hits)
		dst = appendU(dst, s.BaseCache.InsertPath.Total)
		dst = appendU(dst, uint64(s.BaseCache.StorageBytes))
		dst = appendU(dst, uint64(s.LiveClusters))
		return appendU(dst, uint64(s.ValidClusters))
	},
	Decode: func(d Decoder) llc.ExtraSnapshot {
		s := &thesaurus.Snapshot{}
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
			StorageBytes: int(d.Uvarint("base storage bytes")),
		}
		s.LiveClusters = int(d.Uvarint("live clusters"))
		s.ValidClusters = int(d.Uvarint("valid clusters"))
		return s
	},
	Equal: func(a, b llc.ExtraSnapshot) bool {
		x, y := a.(*thesaurus.Snapshot), b.(*thesaurus.Snapshot)
		if x.Extra != y.Extra || x.BaseCache != y.BaseCache ||
			x.LiveClusters != y.LiveClusters || x.ValidClusters != y.ValidClusters ||
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

// countersCodec persists llc.Counters, the snapshot of every design whose
// own statistics are only event counts: a count, then each counter's
// name and value.
var countersCodec = &ExtraCodec{
	Tag: tagCounters,
	Matches: func(x llc.ExtraSnapshot) bool {
		_, ok := x.(llc.Counters)
		return ok
	},
	Encode: func(dst []byte, x llc.ExtraSnapshot) []byte {
		cs := x.(llc.Counters)
		dst = appendU(dst, uint64(len(cs)))
		for _, c := range cs {
			dst = appendU(dst, uint64(len(c.Name)))
			dst = append(dst, c.Name...)
			dst = appendU(dst, c.Value)
		}
		return dst
	},
	Decode: func(d Decoder) llc.ExtraSnapshot {
		n := d.Count("counter count", maxCounters)
		cs := make(llc.Counters, 0, n)
		for i := 0; i < n && d.Err() == nil; i++ {
			cs = append(cs, llc.Counter{Name: d.Str("counter name"), Value: d.Uvarint("counter value")})
		}
		return cs
	},
	Equal: func(a, b llc.ExtraSnapshot) bool {
		return slices.Equal(a.(llc.Counters), b.(llc.Counters))
	},
}

// summarizeCounters is the Summary of every design that releases
// llc.Counters: its counters as name=value pairs.
func summarizeCounters(x llc.ExtraSnapshot) string {
	cs, _ := x.(llc.Counters)
	if len(cs) == 0 {
		return ""
	}
	parts := make([]string, len(cs))
	for i, c := range cs {
		parts[i] = fmt.Sprintf("%s=%d", c.Name, c.Value)
	}
	return "  " + strings.Join(parts, " ")
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
		Codec: countersCodec,
		AppendConfigKey: func(dst []byte) []byte {
			cfg := dedupcache.DefaultConfig()
			return keyU64(dst, uint64(cfg.TagEntries), uint64(cfg.TagWays),
				uint64(cfg.DataEntries), uint64(cfg.HashEntries))
		},
		Summary: summarizeCounters,
	})
	registerSegmented(segcache.BDI)
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
	registerSegmented(segcache.CPack)
	registerSegmented(segcache.DISH)
}

// registerSegmented registers a design on the segmented layout at the
// default geometry.
func registerSegmented(comp segcache.Compressor) {
	Register(Scheme{
		Name: comp.Name,
		Build: func(mem *memory.Store) (llc.Cache, error) {
			return segcache.New(segcache.DefaultConfig(), comp, mem)
		},
		Codec: countersCodec,
		AppendConfigKey: func(dst []byte) []byte {
			cfg := segcache.DefaultConfig()
			return keyU64(dst, uint64(cfg.Sets), uint64(cfg.TagWays), uint64(cfg.DataWays))
		},
		Summary: summarizeCounters,
	})
}
