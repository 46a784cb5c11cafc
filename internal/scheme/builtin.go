// Built-in design registrations. Registration order is report order:
// the first six entries reproduce the pre-registry design list (and its
// report columns) exactly; CPack and DISH append after it.
package scheme

import (
	"encoding/binary"
	"fmt"
	"strings"

	"repro/internal/dedupcache"
	"repro/internal/ideal"
	"repro/internal/llc"
	"repro/internal/memory"
	"repro/internal/segcache"
	"repro/internal/thesaurus"
	"repro/internal/uncomp"
)

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
		AppendConfigKey: func(dst []byte) []byte {
			cfg := segcache.DefaultConfig()
			return keyU64(dst, uint64(cfg.Sets), uint64(cfg.TagWays), uint64(cfg.DataWays))
		},
		Summary: summarizeCounters,
	})
}
