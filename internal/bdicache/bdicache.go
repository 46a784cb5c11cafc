// Package bdicache implements a BΔI-compressed LLC (§2.2): each line is
// compressed independently with Base-Delta-Immediate encoding and stored
// in its set at 8-byte-segment granularity, with a doubled tag array so
// freed space can hold additional lines (Fig. 3).
package bdicache

import (
	"fmt"

	"repro/internal/bdi"
	"repro/internal/cache"
	"repro/internal/line"
	"repro/internal/llc"
	"repro/internal/memory"
)

// segmentBytes is the data allocation granule, as in BΔI's original
// proposal (lines are logically divided into eight 8-byte segments).
const segmentBytes = 8

// Config sizes a BΔI LLC; DefaultConfig matches Table 2's iso-silicon
// point (896KB of data, doubled tags).
type Config struct {
	// Sets is the number of cache sets; each set has DataWays×64 bytes
	// of data and TagWays tag entries.
	Sets int
	// TagWays is the (doubled) tag associativity per set.
	TagWays int
	// DataWays is the uncompressed-line capacity per set; the segment
	// budget is DataWays×8.
	DataWays int
}

// DefaultConfig returns the Table 2 BΔI configuration: 896KB data array
// (1792 sets × 8 ways) with 16 tags per set.
func DefaultConfig() Config {
	return Config{Sets: 1792, TagWays: 16, DataWays: 8}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.TagWays <= 0 || c.DataWays <= 0 {
		return fmt.Errorf("bdicache: non-positive geometry")
	}
	if c.TagWays&(c.TagWays-1) != 0 {
		return fmt.Errorf("bdicache: tag ways must be a power of two for PLRU")
	}
	return nil
}

func (c Config) segsPerSet() int { return c.DataWays * line.Size / segmentBytes }

// tagPayload carries the compressed block for one resident line.
type tagPayload struct {
	enc  bdi.Encoded
	segs int
}

// ExtraStats counts BΔI-specific events.
type ExtraStats struct {
	Insertions uint64
	// Compressed counts insertions stored in fewer than 8 segments.
	Compressed uint64
	// ByKind histograms insertions by BΔI encoding.
	ByKind map[bdi.Kind]uint64
	// SpaceEvictions counts extra evictions needed to fit a block beyond
	// the tag-replacement victim.
	SpaceEvictions uint64
}

// Cache is a BΔI LLC.
type Cache struct {
	cfg      Config
	tags     *cache.Array[tagPayload]
	usedSegs []int // per set
	mem      *memory.Store

	stats llc.Stats
	extra ExtraStats

	// encScratch is the per-cache scratch encoding installs compress into
	// before copying into the (freshly zeroed) tag payload; deltaPool
	// recycles the delta buffers of retired entries so steady-state
	// installs allocate nothing (docs/performance.md).
	encScratch bdi.Encoded
	deltaPool  [][]int64
}

var _ llc.Cache = (*Cache)(nil)

// tagPool parks released tag arrays for the next cache of the same
// geometry (docs/performance.md, "The release lifecycle").
var tagPool = cache.NewArrayPool[tagPayload]()

// New builds a BΔI LLC over mem.
func New(cfg Config, mem *memory.Store) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cache{
		cfg: cfg,
		tags: tagPool.New(cache.Config{
			Entries: cfg.Sets * cfg.TagWays, Ways: cfg.TagWays, Policy: "plru",
		}),
		usedSegs: make([]int, cfg.Sets),
		mem:      mem,
	}
	c.extra.ByKind = make(map[bdi.Kind]uint64)
	return c, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config, mem *memory.Store) *Cache {
	c, err := New(cfg, mem)
	if err != nil {
		panic(err)
	}
	return c
}

// Name implements llc.Cache.
func (c *Cache) Name() string { return "BDI" }

// Extra returns BΔI-specific statistics.
func (c *Cache) Extra() ExtraStats { return c.extra }

func (c *Cache) setOf(addr line.Addr) int {
	return int(addr.BlockNumber() % uint64(c.cfg.Sets))
}

// segsFor returns the segment footprint of an encoded block.
func segsFor(e *bdi.Encoded) int {
	s := (e.SizeBytes() + segmentBytes - 1) / segmentBytes
	if s < 1 {
		s = 1
	}
	return s
}

// Read implements llc.Cache.
//
//thesaurus:hotpath
func (c *Cache) Read(addr line.Addr) (line.Line, bool) {
	addr = addr.LineAddr()
	c.stats.Reads++
	if e, _ := c.tags.Lookup(addr); e != nil {
		c.stats.ReadHits++
		data, err := bdi.Decompress(e.Payload.enc)
		if err != nil {
			panic(err)
		}
		return data, true
	}
	data := c.mem.Read(addr, memory.Fill)
	c.stats.Fills++
	c.install(addr, data, false)
	return data, false
}

// Write implements llc.Cache: the new value is recompressed, which may
// change the block's size and force evictions within the set (§5.4.2's
// counterpart in BΔI).
//
//thesaurus:hotpath
func (c *Cache) Write(addr line.Addr, data line.Line) bool {
	addr = addr.LineAddr()
	c.stats.Writes++
	if e, _ := c.tags.Lookup(addr); e != nil {
		c.stats.WriteHits++
		set := c.setOf(addr)
		c.usedSegs[set] -= e.Payload.segs
		// Recompress in place: the payload keeps its delta buffer across
		// re-encodings, so steady-state write hits allocate nothing. segs
		// stays 0 while makeRoom runs (the entry has no footprint during
		// the re-fit, exactly as when the payload was wiped wholesale).
		e.Payload.segs = 0
		bdi.CompressInto(&e.Payload.enc, &data)
		need := segsFor(&e.Payload.enc)
		c.makeRoom(addr, need)
		e.Payload.segs = need
		c.usedSegs[set] += need
		e.Dirty = true
		return true
	}
	c.install(addr, data, true)
	return false
}

// install compresses and inserts a new line.
func (c *Cache) install(addr line.Addr, data line.Line, dirty bool) {
	enc := &c.encScratch
	bdi.CompressInto(enc, &data)
	need := segsFor(enc)
	set := c.setOf(addr)

	e, _, evicted, had := c.tags.Insert(addr)
	if had {
		c.retire(set, evicted)
	}
	c.makeRoom(addr, need)
	// Deep-copy the scratch encoding into the freshly zeroed payload,
	// backing it with a recycled delta buffer when one is available.
	var buf []int64
	if n := len(c.deltaPool); n > 0 {
		buf, c.deltaPool = c.deltaPool[n-1], c.deltaPool[:n-1]
	}
	e.Payload.enc = *enc
	e.Payload.enc.Deltas = append(buf[:0], enc.Deltas...)
	e.Payload.segs = need
	e.Dirty = dirty
	c.usedSegs[set] += need

	c.extra.Insertions++
	c.extra.ByKind[enc.Kind]++
	if enc.Compressed() {
		c.extra.Compressed++
	}
}

// makeRoom evicts additional lines from addr's set until need segments
// are free. The just-inserted/updated tag is MRU and thus never the PLRU
// victim while other candidates remain.
func (c *Cache) makeRoom(addr line.Addr, need int) {
	set := c.setOf(addr)
	budget := c.cfg.segsPerSet()
	for c.usedSegs[set]+need > budget {
		idx := c.tags.ValidVictimIndex(addr)
		if idx < 0 {
			panic("bdicache: no evictable line in an over-budget set")
		}
		old := c.tags.InvalidateIndex(idx)
		c.retire(set, old)
		c.extra.SpaceEvictions++
	}
}

// retire writes back a displaced line, releases its segments, and
// reclaims its delta buffer for the install pool.
func (c *Cache) retire(set int, evicted cache.Entry[tagPayload]) {
	c.usedSegs[set] -= evicted.Payload.segs
	if evicted.Dirty {
		data, err := bdi.Decompress(evicted.Payload.enc)
		if err != nil {
			panic(err)
		}
		c.mem.Write(evicted.Addr, data, memory.Writeback)
		c.stats.Writebacks++
	}
	if cap(evicted.Payload.enc.Deltas) > 0 {
		c.deltaPool = append(c.deltaPool, evicted.Payload.enc.Deltas[:0])
	}
}

// DecompressionCycles reports BΔI's one-cycle decompression latency.
func (c *Cache) DecompressionCycles() float64 { return 1 }

// Stats implements llc.Cache.
func (c *Cache) Stats() llc.Stats { return c.stats }

// ResetStats implements llc.Cache.
func (c *Cache) ResetStats() {
	c.stats = llc.Stats{}
	c.extra = ExtraStats{ByKind: make(map[bdi.Kind]uint64)}
	c.tags.ResetStats()
}

// Footprint implements llc.Cache.
func (c *Cache) Footprint() llc.Footprint {
	used := 0
	for _, s := range c.usedSegs {
		used += s
	}
	return llc.Footprint{
		ResidentLines:  c.tags.CountValid(),
		DataBytesUsed:  used * segmentBytes,
		DataBytesTotal: c.cfg.Sets * c.cfg.segsPerSet() * segmentBytes,
	}
}

// Snapshot is the BΔI-specific release snapshot (the Fig. 17-adjacent
// encoding-mix counters).
type Snapshot struct {
	Extra ExtraStats
}

// Clone implements llc.ExtraSnapshot, deep-copying the ByKind histogram.
func (s *Snapshot) Clone() llc.ExtraSnapshot {
	cp := &Snapshot{Extra: s.Extra}
	if s.Extra.ByKind != nil {
		cp.Extra.ByKind = make(map[bdi.Kind]uint64, len(s.Extra.ByKind))
		for k, v := range s.Extra.ByKind {
			cp.Extra.ByKind[k] = v
		}
	}
	return cp
}

// Release implements llc.Cache: it extracts the statistics snapshot,
// parks the tag array for the next cache of the same geometry and frees
// the recycled delta buffers. The cache must not be used afterwards.
func (c *Cache) Release() llc.StatsSnapshot {
	if c.tags == nil {
		panic("bdicache: Release called twice")
	}
	snap := (&Snapshot{Extra: c.extra}).Clone()
	tagPool.Put(c.tags)
	c.tags = nil
	c.usedSegs = nil
	c.deltaPool = nil
	return llc.StatsSnapshot{Design: c.Name(), Stats: c.stats, Extra: snap}
}

// CheckInvariants validates the per-set segment accounting.
func (c *Cache) CheckInvariants() error {
	sums := make([]int, c.cfg.Sets)
	var err error
	c.tags.ForEach(func(_ int, e *cache.Entry[tagPayload]) {
		set := c.setOf(e.Addr)
		sums[set] += e.Payload.segs
		if e.Payload.segs <= 0 || e.Payload.segs > line.Size/segmentBytes {
			err = fmt.Errorf("line %#x: bad segment count %d", uint64(e.Addr), e.Payload.segs)
		}
	})
	if err != nil {
		return err
	}
	for s := range sums {
		if sums[s] != c.usedSegs[s] {
			return fmt.Errorf("set %d: usedSegs=%d, tags sum to %d", s, c.usedSegs[s], sums[s])
		}
		if sums[s] > c.cfg.segsPerSet() {
			return fmt.Errorf("set %d: %d segments exceed budget %d", s, sums[s], c.cfg.segsPerSet())
		}
	}
	return nil
}
