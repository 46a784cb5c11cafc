// Package dish implements a DISH-style dual-scheme compressed LLC
// (Panda & Seznec, "Dictionary Sharing: An Efficient Cache Compression
// Scheme"): every fill chooses between two compression schemes — a
// C-Pack-style dictionary scheme (scheme 1) and BΔI (scheme 2) — with
// the default decided by a majority vote over the schemes of resident
// lines and an on-the-fly switch to the other scheme when the default
// does not compress the block. Lines a neither scheme compresses are
// stored raw. The storage layout matches the BΔI design: 8-byte
// segments, doubled tags, iso-silicon data array.
package dish

import (
	"fmt"

	"repro/internal/bdi"
	"repro/internal/cache"
	"repro/internal/cpack"
	"repro/internal/line"
	"repro/internal/llc"
	"repro/internal/memory"
)

// segmentBytes is the data allocation granule.
const segmentBytes = 8

// rawSegs is a raw (uncompressed) line's segment footprint.
const rawSegs = line.Size / segmentBytes

// schemeKind tags each resident line with the scheme that compressed it.
type schemeKind uint8

const (
	schemeRaw schemeKind = iota // stored uncompressed
	scheme1                     // C-Pack dictionary
	scheme2                     // BΔI
)

// Config sizes a DISH LLC; DefaultConfig mirrors the BΔI iso-silicon
// point (896KB of data, doubled tags).
type Config struct {
	// Sets is the number of cache sets.
	Sets int
	// TagWays is the (doubled) tag associativity per set.
	TagWays int
	// DataWays is the uncompressed-line capacity per set; the segment
	// budget is DataWays×8.
	DataWays int
}

// DefaultConfig returns the iso-silicon DISH configuration: 896KB data
// array (1792 sets × 8 ways) with 16 tags per set.
func DefaultConfig() Config {
	return Config{Sets: 1792, TagWays: 16, DataWays: 8}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.TagWays <= 0 || c.DataWays <= 0 {
		return fmt.Errorf("dish: non-positive geometry")
	}
	if c.TagWays&(c.TagWays-1) != 0 {
		return fmt.Errorf("dish: tag ways must be a power of two for PLRU")
	}
	return nil
}

func (c Config) segsPerSet() int { return c.DataWays * line.Size / segmentBytes }

// tagPayload carries one resident line: the raw content, its charged
// segment footprint, and the scheme that produced that footprint (the
// evict path decrements the matching majority-vote counter).
type tagPayload struct {
	data   line.Line
	segs   int
	scheme schemeKind
}

// ExtraStats counts DISH-specific events.
type ExtraStats struct {
	Insertions uint64
	// Scheme1Fills / Scheme2Fills / UncompressedFills partition every
	// compression decision (insertions and write-hit recompressions) by
	// the scheme that won.
	Scheme1Fills      uint64
	Scheme2Fills      uint64
	UncompressedFills uint64
	// OTFSelections counts decisions where the majority-vote default
	// scheme failed to compress and the block switched on the fly.
	OTFSelections uint64
	// SpaceEvictions counts extra evictions needed to fit a block beyond
	// the tag-replacement victim.
	SpaceEvictions uint64
}

// Cache is a DISH dual-scheme LLC.
type Cache struct {
	cfg      Config
	tags     *cache.Array[tagPayload]
	usedSegs []int // per set
	mem      *memory.Store

	// numScheme1/numScheme2 count resident lines per scheme; the default
	// scheme for the next fill is the current majority (ties favour
	// scheme 1, as in the Sniper controller).
	numScheme1 int
	numScheme2 int

	stats llc.Stats
	extra ExtraStats
}

var _ llc.Cache = (*Cache)(nil)

// tagPool parks released tag arrays for the next cache of the same
// geometry (docs/performance.md, "The release lifecycle").
var tagPool = cache.NewArrayPool[tagPayload]()

// New builds a DISH LLC over mem.
func New(cfg Config, mem *memory.Store) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Cache{
		cfg: cfg,
		tags: tagPool.New(cache.Config{
			Entries: cfg.Sets * cfg.TagWays, Ways: cfg.TagWays, Policy: "plru",
		}),
		usedSegs: make([]int, cfg.Sets),
		mem:      mem,
	}, nil
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
func (c *Cache) Name() string { return "DISH" }

// Extra returns DISH-specific statistics.
func (c *Cache) Extra() ExtraStats { return c.extra }

func (c *Cache) setOf(addr line.Addr) int {
	return int(addr.BlockNumber() % uint64(c.cfg.Sets))
}

// segsOf converts a compressed byte size to segments (at least one).
func segsOf(sizeBytes int) int {
	s := (sizeBytes + segmentBytes - 1) / segmentBytes
	if s < 1 {
		s = 1
	}
	return s
}

// defaultScheme is the majority vote over resident lines.
func (c *Cache) defaultScheme() schemeKind {
	if c.numScheme1 >= c.numScheme2 {
		return scheme1
	}
	return scheme2
}

// choose picks the scheme and segment footprint for data: try the
// majority-vote default first, switch on the fly to the other scheme if
// the default does not compress the block (fewer segments than raw), and
// fall back to a raw store when neither wins.
func (c *Cache) choose(data *line.Line) (schemeKind, int) {
	segs1 := segsOf(cpack.CompressLine(data, nil))
	segs2 := rawSegs
	if sz, ok := bdi.CompressedSize(data); ok {
		segs2 = segsOf(sz)
	}
	def, defSegs, altSegs := c.defaultScheme(), segs1, segs2
	if def == scheme2 {
		defSegs, altSegs = segs2, segs1
	}
	if defSegs < rawSegs {
		return def, defSegs
	}
	if altSegs < rawSegs {
		c.extra.OTFSelections++
		if def == scheme1 {
			return scheme2, altSegs
		}
		return scheme1, altSegs
	}
	return schemeRaw, rawSegs
}

// account registers a compression decision in the majority-vote counters
// and the fill statistics.
func (c *Cache) account(s schemeKind) {
	switch s {
	case scheme1:
		c.numScheme1++
		c.extra.Scheme1Fills++
	case scheme2:
		c.numScheme2++
		c.extra.Scheme2Fills++
	default:
		c.extra.UncompressedFills++
	}
}

// unaccount removes an evicted or overwritten line from the
// majority-vote counters.
func (c *Cache) unaccount(s schemeKind) {
	switch s {
	case scheme1:
		c.numScheme1--
	case scheme2:
		c.numScheme2--
	}
}

// Read implements llc.Cache.
//
//thesaurus:hotpath
func (c *Cache) Read(addr line.Addr) (line.Line, bool) {
	addr = addr.LineAddr()
	c.stats.Reads++
	if e, _ := c.tags.Lookup(addr); e != nil {
		c.stats.ReadHits++
		return e.Payload.data, true
	}
	data := c.mem.Read(addr, memory.Fill)
	c.stats.Fills++
	c.install(addr, data, false)
	return data, false
}

// Write implements llc.Cache: the new value re-runs scheme selection,
// which may change the block's size and force evictions within the set.
//
//thesaurus:hotpath
func (c *Cache) Write(addr line.Addr, data line.Line) bool {
	addr = addr.LineAddr()
	c.stats.Writes++
	if e, _ := c.tags.Lookup(addr); e != nil {
		c.stats.WriteHits++
		set := c.setOf(addr)
		c.usedSegs[set] -= e.Payload.segs
		c.unaccount(e.Payload.scheme)
		// The entry has no footprint while makeRoom refits the set.
		e.Payload.segs = 0
		s, need := c.choose(&data)
		c.account(s)
		c.makeRoom(addr, need)
		e.Payload.data = data
		e.Payload.segs = need
		e.Payload.scheme = s
		c.usedSegs[set] += need
		e.Dirty = true
		return true
	}
	c.install(addr, data, true)
	return false
}

// install selects a scheme and inserts a new line.
func (c *Cache) install(addr line.Addr, data line.Line, dirty bool) {
	s, need := c.choose(&data)
	c.account(s)
	set := c.setOf(addr)

	e, _, evicted, had := c.tags.Insert(addr)
	if had {
		c.retire(set, evicted)
	}
	c.makeRoom(addr, need)
	e.Payload.data = data
	e.Payload.segs = need
	e.Payload.scheme = s
	e.Dirty = dirty
	c.usedSegs[set] += need

	c.extra.Insertions++
}

// makeRoom evicts additional lines from addr's set until need segments
// are free.
func (c *Cache) makeRoom(addr line.Addr, need int) {
	set := c.setOf(addr)
	budget := c.cfg.segsPerSet()
	for c.usedSegs[set]+need > budget {
		idx := c.tags.ValidVictimIndex(addr)
		if idx < 0 {
			panic("dish: no evictable line in an over-budget set")
		}
		old := c.tags.InvalidateIndex(idx)
		c.retire(set, old)
		c.extra.SpaceEvictions++
	}
}

// retire writes back a displaced line, releases its segments, and
// removes it from the majority-vote counters.
func (c *Cache) retire(set int, evicted cache.Entry[tagPayload]) {
	c.usedSegs[set] -= evicted.Payload.segs
	c.unaccount(evicted.Payload.scheme)
	if evicted.Dirty {
		c.mem.Write(evicted.Addr, evicted.Payload.data, memory.Writeback)
		c.stats.Writebacks++
	}
}

// DecompressionCycles reports the dual-scheme hit latency: the critical
// path is sized for the slower scheme-1 (C-Pack) decompressor.
func (c *Cache) DecompressionCycles() float64 { return 8 }

// Stats implements llc.Cache.
func (c *Cache) Stats() llc.Stats { return c.stats }

// ResetStats implements llc.Cache. The majority-vote counters describe
// resident lines, not events, so they survive the reset.
func (c *Cache) ResetStats() {
	c.stats = llc.Stats{}
	c.extra = ExtraStats{}
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

// Snapshot is the DISH release snapshot: the scheme-selection counters.
type Snapshot struct {
	Extra ExtraStats
}

// Clone implements llc.ExtraSnapshot. ExtraStats is a pure value type,
// so a copy is already deep.
func (s *Snapshot) Clone() llc.ExtraSnapshot {
	cp := *s
	return &cp
}

// Release implements llc.Cache: it extracts the statistics snapshot and
// parks the tag array for the next cache of the same geometry. The cache
// must not be used afterwards.
func (c *Cache) Release() llc.StatsSnapshot {
	if c.tags == nil {
		panic("dish: Release called twice")
	}
	snap := &Snapshot{Extra: c.extra}
	tagPool.Put(c.tags)
	c.tags = nil
	c.usedSegs = nil
	return llc.StatsSnapshot{Design: c.Name(), Stats: c.stats, Extra: snap}
}

// CheckInvariants validates the per-set segment accounting and the
// majority-vote counters against the resident lines.
func (c *Cache) CheckInvariants() error {
	sums := make([]int, c.cfg.Sets)
	n1, n2 := 0, 0
	var err error
	c.tags.ForEach(func(_ int, e *cache.Entry[tagPayload]) {
		set := c.setOf(e.Addr)
		sums[set] += e.Payload.segs
		if e.Payload.segs <= 0 || e.Payload.segs > rawSegs {
			err = fmt.Errorf("line %#x: bad segment count %d", uint64(e.Addr), e.Payload.segs)
		}
		switch e.Payload.scheme {
		case scheme1:
			n1++
		case scheme2:
			n2++
		}
	})
	if err != nil {
		return err
	}
	if n1 != c.numScheme1 || n2 != c.numScheme2 {
		return fmt.Errorf("scheme counters (%d,%d) but residents (%d,%d)",
			c.numScheme1, c.numScheme2, n1, n2)
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
