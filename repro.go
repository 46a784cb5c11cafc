// Package repro is a from-scratch reproduction of "Thesaurus: Efficient
// Cache Compression via Dynamic Clustering" (Ghasemazar, Nair, Lis;
// ASPLOS 2020) as a production-quality Go library.
//
// Thesaurus compresses a last-level cache by clustering cachelines that
// are similar — not merely identical — using a hardware-friendly
// locality-sensitive hash, and storing each cluster member as a
// byte-granular diff against the cluster's base line (the "clusteroid").
//
// This package is the public facade over the implementation packages:
//
//   - the Thesaurus compressed cache itself (Cache, Config);
//   - the locality-sensitive hashing building block (LSH, LSHConfig);
//   - the compression encodings (Encode/Decode, base+diff and friends);
//   - the comparison baselines (conventional, BΔI, Dedup, ideal models);
//   - the cache-hierarchy simulator and synthetic SPEC CPU 2017-like
//     workload profiles used to reproduce the paper's evaluation.
//
// # Quick start
//
//	mem := repro.NewMemory()
//	cache := repro.MustNewCache(repro.DefaultConfig(), mem)
//	mem.Poke(0x1000, someLine)          // populate backing memory
//	data, hit := cache.Read(0x1000)     // miss: fills, clusters, compresses
//	fp := cache.Footprint()
//	fmt.Println(fp.CompressionRatio())
//
// The cmd/thesaurus binary regenerates every table and figure of the
// paper; see DESIGN.md for the experiment index and EXPERIMENTS.md for
// measured-versus-published results.
package repro

import (
	"repro/internal/bdi"
	"repro/internal/dedupcache"
	"repro/internal/diffenc"
	"repro/internal/dram"
	"repro/internal/ideal"
	"repro/internal/line"
	"repro/internal/llc"
	"repro/internal/lsh"
	"repro/internal/memory"
	"repro/internal/segcache"
	"repro/internal/sim"
	"repro/internal/thesaurus"
	"repro/internal/trace"
	"repro/internal/uncomp"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------------
// Cachelines and memory

// Line is a 64-byte memory block: the unit of caching and compression.
type Line = line.Line

// Addr is a physical byte address; caches operate on line-aligned
// addresses.
type Addr = line.Addr

// LineSize is the cacheline size in bytes.
const LineSize = line.Size

// DiffBytes returns the number of byte positions at which two lines
// differ — the distance metric underlying the whole design.
func DiffBytes(a, b *Line) int { return line.DiffBytes(a, b) }

// Memory is the DRAM backing store behind an LLC.
type Memory = memory.Store

// NewMemory returns an empty backing store; unpopulated lines read as
// zero.
func NewMemory() *Memory { return memory.NewStore() }

// ---------------------------------------------------------------------------
// Locality-sensitive hashing (§4)

// LSH computes sign-quantized sparse-random-projection fingerprints of
// cachelines: similar lines collide with high probability.
type LSH = lsh.Hasher

// LSHConfig parameterizes the hash: fingerprint width, projection
// sparsity, and the matrix seed.
type LSHConfig = lsh.Config

// Fingerprint is an LSH cluster ID.
type Fingerprint = lsh.Fingerprint

// DefaultLSHConfig returns the paper's evaluation setting: 12-bit
// fingerprints, 6 non-zero coefficients per row.
func DefaultLSHConfig() LSHConfig { return lsh.DefaultConfig() }

// NewLSH builds a hasher.
func NewLSH(cfg LSHConfig) (*LSH, error) { return lsh.New(cfg) }

// ---------------------------------------------------------------------------
// Compression encodings (§5.1)

// Format identifies a Thesaurus data encoding (raw, base+diff, 0+diff,
// base-only, all-zero).
type Format = diffenc.Format

// The five encodings of §5.1.
const (
	FormatRaw      = diffenc.FormatRaw
	FormatBaseDiff = diffenc.FormatBaseDiff
	FormatZeroDiff = diffenc.FormatZeroDiff
	FormatBaseOnly = diffenc.FormatBaseOnly
	FormatAllZero  = diffenc.FormatAllZero
)

// Encoded is one compressed (or raw) data-array entry.
type Encoded = diffenc.Encoded

// Encode compresses l against base (which may be nil), choosing the
// smallest applicable encoding.
func Encode(l, base *Line) Encoded { return diffenc.Encode(l, base) }

// Decode reconstructs the original line from an encoding and its base.
func Decode(e Encoded, base *Line) (Line, error) { return diffenc.Decode(e, base) }

// CompressBDI applies Base-Delta-Immediate compression (the intra-line
// baseline of §2.2) and returns the encoded block.
func CompressBDI(l *Line) bdi.Encoded { return bdi.Compress(l) }

// ---------------------------------------------------------------------------
// The Thesaurus cache (§5)

// Cache is a Thesaurus last-level cache: decoupled tag and data arrays,
// online LSH clustering, a base table of clusteroids with an LLC-side
// base cache, and best-of-n data victim selection.
type Cache = thesaurus.Cache

// Config sizes a Thesaurus cache; DefaultConfig reproduces the paper's
// Table 2 iso-silicon design point.
type Config = thesaurus.Config

// DefaultConfig returns the Table 2 configuration.
func DefaultConfig() Config { return thesaurus.DefaultConfig() }

// NewCache builds a Thesaurus LLC over mem.
func NewCache(cfg Config, mem *Memory) (*Cache, error) { return thesaurus.New(cfg, mem) }

// MustNewCache is NewCache but panics on configuration errors.
func MustNewCache(cfg Config, mem *Memory) *Cache { return thesaurus.MustNew(cfg, mem) }

// ---------------------------------------------------------------------------
// Baselines and the common LLC contract

// LLC is the interface every cache design implements; the simulator and
// harness are design-agnostic.
type LLC = llc.Cache

// Footprint is an occupancy sample (the Fig. 13a metric).
type Footprint = llc.Footprint

// LLCStats counts LLC-level events.
type LLCStats = llc.Stats

// NewConventional builds an uncompressed set-associative LLC of the given
// size (the evaluation baseline).
func NewConventional(name string, sizeBytes int, mem *Memory) LLC {
	cfg := uncomp.DefaultConfig()
	cfg.SizeBytes = sizeBytes
	return uncomp.New(name, cfg, mem)
}

// NewBDICache builds the BΔI-compressed baseline LLC (Table 2 geometry).
func NewBDICache(mem *Memory) (LLC, error) {
	return segcache.New(segcache.DefaultConfig(), segcache.BDI, mem)
}

// NewDedupCache builds the Dedup baseline LLC (Table 2 geometry).
func NewDedupCache(mem *Memory) (LLC, error) { return dedupcache.New(dedupcache.DefaultConfig(), mem) }

// NewIdealCache builds the online Ideal-Diff model (the "Ideal" series of
// Fig. 13).
func NewIdealCache(mem *Memory) LLC { return ideal.New(ideal.DefaultConfig(), mem) }

// ---------------------------------------------------------------------------
// Simulation substrate

// Access is one core-level memory access of a trace.
type Access = trace.Access

// TraceSource produces a stream of accesses.
type TraceSource = trace.Source

// SystemConfig describes the simulated system (Table 1).
type SystemConfig = sim.SystemConfig

// DefaultSystem returns the Table 1 configuration.
func DefaultSystem() SystemConfig { return sim.DefaultSystem() }

// Recorded is the L1/L2-filtered LLC event stream of a workload.
type Recorded = sim.Recorded

// Record filters a core-level trace through the private cache levels.
// img must hold the workload's initial memory image.
func Record(src TraceSource, sys SystemConfig, img *Memory) *Recorded {
	return sim.Record(src, sys, img)
}

// DRAMConfig describes an open-page DDR3-class memory system; attach a
// model built from it to a backing store to replace the flat memory
// latency with row-buffer-aware timing.
type DRAMConfig = dram.Config

// DDR3_1066 returns the timing of the paper's DDR3-1066 part.
func DDR3_1066() DRAMConfig { return dram.DDR3_1066() }

// NewDRAM builds an open-page DRAM timing model; attach it with
// (*Memory).AttachLatencyModel.
func NewDRAM(cfg DRAMConfig) *dram.Model { return dram.New(cfg) }

// ReplayOptions tunes a replay run.
type ReplayOptions = sim.ReplayOptions

// Result summarizes one design × workload replay (MPKI, IPC, compression).
type Result = sim.Result

// Replay drives a recorded event stream into an LLC over its backing
// store and returns the metrics.
func Replay(c LLC, rec *Recorded, st *Memory, sys SystemConfig, opt ReplayOptions) (Result, error) {
	return sim.Replay(c, rec, st, sys, opt)
}

// ---------------------------------------------------------------------------
// Workloads

// Profile is one synthetic SPEC CPU 2017-like workload.
type Profile = workload.Profile

// Profiles returns all 22 benchmark profiles.
func Profiles() []Profile { return workload.Profiles() }

// ProfileByName returns the named profile ("mcf", "roms", ...).
func ProfileByName(name string) (Profile, error) { return workload.ProfileByName(name) }
