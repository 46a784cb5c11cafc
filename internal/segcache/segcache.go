// Package segcache implements the segmented compressed LLC that the
// intra-line designs share (§2.2, Fig. 3): each line is compressed on its
// own and stored in its set at 8-byte-segment granularity, behind a
// doubled tag array so freed space can hold additional lines. A design is
// a Compressor that sizes a line; the cache owns placement, the per-set
// segment budget, eviction, writeback, the tag pool, the footprint and
// the per-class resident counts. BDI, CPack and DISH are the three
// designs built on it.
//
// The cache keeps each line's exact bytes and charges its compressed
// footprint: every report metric depends only on segments, hits and
// writebacks, so hits never run a decompressor (the BΔI round trip is
// tested in internal/bdi).
package segcache

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/line"
	"repro/internal/llc"
	"repro/internal/memory"
)

// segmentBytes is the data allocation granule: lines divide into eight
// 8-byte segments, as in BΔI's original proposal.
const segmentBytes = 8

// rawSegs is an uncompressed line's segment footprint.
const rawSegs = line.Size / segmentBytes

// NumClasses bounds the classes a Compressor stores with its lines.
const NumClasses = 3

// Config sizes a segmented LLC; DefaultConfig matches Table 2's
// iso-silicon point (896KB of data, doubled tags).
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

// DefaultConfig returns the Table 2 configuration: 896KB data array
// (1792 sets × 8 ways) with 16 tags per set.
func DefaultConfig() Config {
	return Config{Sets: 1792, TagWays: 16, DataWays: 8}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.TagWays <= 0 || c.DataWays <= 0 {
		return fmt.Errorf("segcache: non-positive geometry")
	}
	if c.TagWays&(c.TagWays-1) != 0 {
		return fmt.Errorf("segcache: tag ways must be a power of two for PLRU")
	}
	return nil
}

func (c Config) segsPerSet() int { return c.DataWays * rawSegs }

// Compressor is one design on the segmented layout: how it sizes a line,
// what a hit costs, and the counters it keeps. The three designs are the
// package's BDI, CPack and DISH values.
type Compressor struct {
	// Name is the design's report name.
	Name string
	// DecompressionCycles is the extra hit latency.
	DecompressionCycles float64
	// Counters names the design's own counters, in snapshot order.
	Counters []string
	// rule selects the sizing function Fit calls.
	rule rule
}

// rule names a Compressor's sizing function. Fit switches on it instead
// of calling through a function value, so every sizing function is a
// named callee that the allocation gate walks.
type rule uint8

const (
	ruleBDI rule = iota
	ruleCPack
	ruleDISH
)

// Fit returns data's footprint in segments (1 to 8) and the class stored
// with it, in [0, NumClasses). resident holds the number of resident
// lines per class; counts has one element per Counters name for Fit to
// count into. The cache calls Fit once per compression decision: on a
// fill before the tag is inserted, and on a write hit after the old
// line's class has been uncounted.
func (c *Compressor) Fit(data line.Line, resident *[NumClasses]int, counts []uint64) (segs int, class uint8) {
	switch c.rule {
	case ruleCPack:
		return fitCPack(&data, counts), 0
	case ruleDISH:
		return fitDISH(&data, resident, counts)
	default:
		return fitBDI(&data, counts), 0
	}
}

// segsOf charges a compressed size in bytes: whole segments, at least
// one, and never more than a raw line (C-Pack sizes can exceed 64 bytes).
func segsOf(sizeBytes int) int {
	return min(max((sizeBytes+segmentBytes-1)/segmentBytes, 1), rawSegs)
}

// The counters every design reports ahead of its own.
const (
	insertions     = iota // lines installed
	compressed            // installs stored in fewer than 8 segments
	spaceEvictions        // evictions beyond the tag victim to fit a line
	numCommon
)

var commonCounters = [numCommon]string{"insertions", "compressed", "space_evictions"}

// tagPayload is one resident line: its exact content, its charged
// footprint and its class.
type tagPayload struct {
	data  line.Line
	segs  uint8
	class uint8
}

// Cache is a segmented compressed LLC.
type Cache struct {
	cfg      Config
	comp     Compressor
	tags     *cache.Array[tagPayload]
	usedSegs []int // per set
	resident [NumClasses]int
	mem      *memory.Store

	stats llc.Stats
	// counts holds the common counters, then the Compressor's own.
	counts []uint64
}

var _ llc.Cache = (*Cache)(nil)

// tagPool parks released tag arrays, and usedPool released per-set
// segment counters keyed by set count, for the next cache of the same
// geometry, whichever design it runs (docs/performance.md, "The release
// lifecycle").
var (
	tagPool  = cache.NewArrayPool[tagPayload]()
	usedPool = cache.NewPool[int, []int]()
)

// New builds comp's LLC over mem.
func New(cfg Config, comp Compressor, mem *memory.Store) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	used, ok := usedPool.Get(cfg.Sets)
	if ok {
		clear(used)
	} else {
		used = make([]int, cfg.Sets)
	}
	return &Cache{
		cfg:  cfg,
		comp: comp,
		tags: tagPool.New(cache.Config{
			Entries: cfg.Sets * cfg.TagWays, Ways: cfg.TagWays, Policy: "plru",
		}),
		usedSegs: used,
		mem:      mem,
		counts:   make([]uint64, numCommon+len(comp.Counters)),
	}, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config, comp Compressor, mem *memory.Store) *Cache {
	c, err := New(cfg, comp, mem)
	if err != nil {
		panic(err)
	}
	return c
}

// Name implements llc.Cache.
func (c *Cache) Name() string { return c.comp.Name }

// DecompressionCycles reports the design's extra hit latency.
func (c *Cache) DecompressionCycles() float64 { return c.comp.DecompressionCycles }

func (c *Cache) setOf(addr line.Addr) int {
	return int(addr.BlockNumber() % uint64(c.cfg.Sets))
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

// Write implements llc.Cache: the new value is recompressed, which may
// change the line's size and force evictions within the set.
//
//thesaurus:hotpath
func (c *Cache) Write(addr line.Addr, data line.Line) bool {
	addr = addr.LineAddr()
	c.stats.Writes++
	if e, _ := c.tags.Lookup(addr); e != nil {
		c.stats.WriteHits++
		set := c.setOf(addr)
		c.usedSegs[set] -= int(e.Payload.segs)
		c.resident[e.Payload.class]--
		// The entry has no footprint while makeRoom refits the set.
		e.Payload.segs = 0
		need, class := c.comp.Fit(data, &c.resident, c.counts[numCommon:])
		c.makeRoom(set, addr, need)
		e.Payload = tagPayload{data: data, segs: uint8(need), class: class}
		e.Dirty = true
		c.usedSegs[set] += need
		c.resident[class]++
		return true
	}
	c.install(addr, data, true)
	return false
}

// install sizes and inserts a new line.
func (c *Cache) install(addr line.Addr, data line.Line, dirty bool) {
	need, class := c.comp.Fit(data, &c.resident, c.counts[numCommon:])
	set := c.setOf(addr)

	e, _, evicted, had := c.tags.Insert(addr)
	if had {
		c.retire(set, evicted)
	}
	c.makeRoom(set, addr, need)
	e.Payload = tagPayload{data: data, segs: uint8(need), class: class}
	e.Dirty = dirty
	c.usedSegs[set] += need
	c.resident[class]++

	c.counts[insertions]++
	if need < rawSegs {
		c.counts[compressed]++
	}
}

// makeRoom evicts additional lines from set until need segments are
// free. The just-inserted or updated tag is MRU and thus never the PLRU
// victim while other candidates remain.
func (c *Cache) makeRoom(set int, addr line.Addr, need int) {
	for c.usedSegs[set]+need > c.cfg.segsPerSet() {
		idx := c.tags.ValidVictimIndex(addr)
		if idx < 0 {
			panic("segcache: no evictable line in an over-budget set")
		}
		c.retire(set, c.tags.InvalidateIndex(idx))
		c.counts[spaceEvictions]++
	}
}

// retire writes back a displaced line and releases its segments and its
// class count.
func (c *Cache) retire(set int, evicted cache.Entry[tagPayload]) {
	c.usedSegs[set] -= int(evicted.Payload.segs)
	c.resident[evicted.Payload.class]--
	if evicted.Dirty {
		c.mem.Write(evicted.Addr, evicted.Payload.data, memory.Writeback)
		c.stats.Writebacks++
	}
}

// Stats implements llc.Cache.
func (c *Cache) Stats() llc.Stats { return c.stats }

// ResetStats implements llc.Cache. The per-class resident counts
// describe resident lines, not events, so they survive the reset.
func (c *Cache) ResetStats() {
	c.stats = llc.Stats{}
	clear(c.counts)
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

// Release implements llc.Cache: it extracts the counters (the common
// ones, then the Compressor's) and parks the tag array and the per-set
// segment counters for the next cache of the same geometry. The cache
// must not be used afterwards.
func (c *Cache) Release() llc.StatsSnapshot {
	if c.tags == nil {
		panic("segcache: Release called twice")
	}
	counters := make(llc.Counters, 0, len(c.counts))
	for i, name := range commonCounters {
		counters = append(counters, llc.Counter{Name: name, Value: c.counts[i]})
	}
	for i, name := range c.comp.Counters {
		counters = append(counters, llc.Counter{Name: name, Value: c.counts[numCommon+i]})
	}
	tagPool.Put(c.tags)
	usedPool.Put(c.cfg.Sets, c.usedSegs)
	c.tags = nil
	c.usedSegs = nil
	return llc.StatsSnapshot{Design: c.Name(), Stats: c.stats, Extra: counters}
}

// CheckInvariants validates the per-set segment accounting and the
// per-class resident counts against a recount of the resident lines.
func (c *Cache) CheckInvariants() error {
	sums := make([]int, c.cfg.Sets)
	var classes [NumClasses]int
	var err error
	c.tags.ForEach(func(_ int, e *cache.Entry[tagPayload]) {
		sums[c.setOf(e.Addr)] += int(e.Payload.segs)
		if e.Payload.segs == 0 || e.Payload.segs > rawSegs {
			err = fmt.Errorf("line %#x: bad segment count %d", uint64(e.Addr), e.Payload.segs)
		}
		classes[e.Payload.class]++
	})
	if err != nil {
		return err
	}
	if classes != c.resident {
		return fmt.Errorf("resident per class %v, lines recount to %v", c.resident, classes)
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
