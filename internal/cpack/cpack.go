// Package cpack implements a C-Pack-compressed LLC: each 64-byte line is
// compressed independently with the C-Pack dictionary algorithm (Chen et
// al., "C-Pack: A High-Performance Microprocessor Cache Compression
// Algorithm") and stored in its set at 8-byte-segment granularity with a
// doubled tag array, exactly like the BΔI design's layout. The line is
// scanned as sixteen 32-bit words against a per-line FIFO dictionary;
// each word encodes as one of six patterns (zero, partial-zero, full or
// partial dictionary match, or uncompressed).
package cpack

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/line"
	"repro/internal/llc"
	"repro/internal/memory"
)

// segmentBytes is the data allocation granule (shared with the BΔI
// design: lines divide into eight 8-byte segments).
const segmentBytes = 8

// wordsPerLine is the number of 32-bit compression words per cache line.
const wordsPerLine = line.Size / 4

// Pattern identifies one C-Pack output pattern, in the canonical order of
// the original paper's code table.
type Pattern uint8

// The six C-Pack patterns: z is a zero byte, m a dictionary-matched byte,
// x an unmatched (literal) byte.
const (
	ZZZZ Pattern = iota // all-zero word
	ZZZX                // three zero bytes + one literal
	MMMM                // full 4-byte dictionary match
	MMMX                // 3-byte dictionary match + one literal
	MMXX                // 2-byte dictionary match + two literals
	XXXX                // uncompressed word
	NumPatterns
)

// patternBits is the encoded width of each pattern in bits: the code
// prefix plus any dictionary index and literal bytes (dictionary index is
// 4 bits for the 16-entry per-line dictionary).
var patternBits = [NumPatterns]int{
	ZZZZ: 2,  // code only
	ZZZX: 12, // 4-bit code + literal byte
	MMMM: 6,  // 2-bit code + 4-bit index
	MMMX: 16, // 4-bit code + 4-bit index + literal byte
	MMXX: 24, // 4-bit code + 4-bit index + two literal bytes
	XXXX: 34, // 2-bit code + raw word
}

// String names the pattern for reports.
func (p Pattern) String() string {
	switch p {
	case ZZZZ:
		return "zzzz"
	case ZZZX:
		return "zzzx"
	case MMMM:
		return "mmmm"
	case MMMX:
		return "mmmx"
	case MMXX:
		return "mmxx"
	case XXXX:
		return "xxxx"
	}
	return fmt.Sprintf("pattern(%d)", uint8(p))
}

// compressWord classifies one 32-bit word against the per-line FIFO
// dictionary, pushing non-zero-pattern words into it as the hardware
// does. Zero patterns return before the dictionary is consulted or
// updated; a full match ends the scan early, while partial matches keep
// scanning for a better entry.
func compressWord(data uint32, dict *[wordsPerLine]uint32, n *int) Pattern {
	if data&0xFFFFFF00 == 0 {
		if data != 0 {
			return ZZZX
		}
		return ZZZZ
	}
	matched := 0
	for i := 0; i < *n; i++ {
		d := dict[i]
		if d == data {
			matched = 4
			break
		}
		if matched < 3 {
			if d&0xFFFFFF00 == data&0xFFFFFF00 {
				matched = 3
			} else if matched < 2 && d&0xFFFF0000 == data&0xFFFF0000 {
				matched = 2
			}
		}
	}
	// A full match adds no information; everything else (new literal
	// bytes) is pushed so later words can match against it.
	if matched < 4 && *n < len(dict) {
		dict[*n] = data
		*n++
	}
	switch matched {
	case 4:
		return MMMM
	case 3:
		return MMMX
	case 2:
		return MMXX
	}
	return XXXX
}

// CompressLine returns the C-Pack-compressed size of l in bytes (bit cost
// rounded up, uncapped — callers clamp to line.Size when a raw store is
// cheaper). The dictionary is reset per line, so lines compress
// independently and the result is a pure function of the content. When
// hist is non-nil each word's pattern is counted into it.
//
//thesaurus:hotpath
func CompressLine(l *line.Line, hist *[NumPatterns]uint64) int {
	var dict [wordsPerLine]uint32
	n := 0
	bits := 0
	for i := 0; i < line.WordsPerLine; i++ {
		w := l.Word(i)
		lo := compressWord(uint32(w), &dict, &n)
		hi := compressWord(uint32(w>>32), &dict, &n)
		bits += patternBits[lo] + patternBits[hi]
		if hist != nil {
			hist[lo]++
			hist[hi]++
		}
	}
	return (bits + 7) / 8
}

// Config sizes a C-Pack LLC; DefaultConfig mirrors the BΔI iso-silicon
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

// DefaultConfig returns the iso-silicon C-Pack configuration: 896KB data
// array (1792 sets × 8 ways) with 16 tags per set.
func DefaultConfig() Config {
	return Config{Sets: 1792, TagWays: 16, DataWays: 8}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.TagWays <= 0 || c.DataWays <= 0 {
		return fmt.Errorf("cpack: non-positive geometry")
	}
	if c.TagWays&(c.TagWays-1) != 0 {
		return fmt.Errorf("cpack: tag ways must be a power of two for PLRU")
	}
	return nil
}

func (c Config) segsPerSet() int { return c.DataWays * line.Size / segmentBytes }

// tagPayload carries one resident line: the raw content (the model
// charges compressed space but keeps the exact bytes, like the ideal
// design) and its charged segment footprint.
type tagPayload struct {
	data line.Line
	segs int
}

// ExtraStats counts C-Pack-specific events.
type ExtraStats struct {
	Insertions uint64
	// Compressed counts insertions stored in fewer than 8 segments.
	Compressed uint64
	// SpaceEvictions counts extra evictions needed to fit a block beyond
	// the tag-replacement victim.
	SpaceEvictions uint64
	// ByPattern histograms every compressed word by C-Pack pattern,
	// across insertions and write-hit recompressions alike.
	ByPattern [NumPatterns]uint64
}

// Cache is a C-Pack LLC.
type Cache struct {
	cfg      Config
	tags     *cache.Array[tagPayload]
	usedSegs []int // per set
	mem      *memory.Store

	stats llc.Stats
	extra ExtraStats
}

var _ llc.Cache = (*Cache)(nil)

// tagPool parks released tag arrays for the next cache of the same
// geometry (docs/performance.md, "The release lifecycle").
var tagPool = cache.NewArrayPool[tagPayload]()

// New builds a C-Pack LLC over mem.
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
func (c *Cache) Name() string { return "CPack" }

// Extra returns C-Pack-specific statistics.
func (c *Cache) Extra() ExtraStats { return c.extra }

func (c *Cache) setOf(addr line.Addr) int {
	return int(addr.BlockNumber() % uint64(c.cfg.Sets))
}

// segsFor charges the segment footprint of a compressed size: raw (8
// segments) when compression does not win, at least one segment always.
func segsFor(sizeBytes int) int {
	if sizeBytes >= line.Size {
		return line.Size / segmentBytes
	}
	s := (sizeBytes + segmentBytes - 1) / segmentBytes
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
		return e.Payload.data, true
	}
	data := c.mem.Read(addr, memory.Fill)
	c.stats.Fills++
	c.install(addr, data, false)
	return data, false
}

// Write implements llc.Cache: the new value is recompressed, which may
// change the block's size and force evictions within the set.
//
//thesaurus:hotpath
func (c *Cache) Write(addr line.Addr, data line.Line) bool {
	addr = addr.LineAddr()
	c.stats.Writes++
	if e, _ := c.tags.Lookup(addr); e != nil {
		c.stats.WriteHits++
		set := c.setOf(addr)
		c.usedSegs[set] -= e.Payload.segs
		// The entry has no footprint while makeRoom refits the set, exactly
		// as when the payload is first installed.
		e.Payload.segs = 0
		need := segsFor(CompressLine(&data, &c.extra.ByPattern))
		c.makeRoom(addr, need)
		e.Payload.data = data
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
	need := segsFor(CompressLine(&data, &c.extra.ByPattern))
	set := c.setOf(addr)

	e, _, evicted, had := c.tags.Insert(addr)
	if had {
		c.retire(set, evicted)
	}
	c.makeRoom(addr, need)
	e.Payload.data = data
	e.Payload.segs = need
	e.Dirty = dirty
	c.usedSegs[set] += need

	c.extra.Insertions++
	if need < line.Size/segmentBytes {
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
			panic("cpack: no evictable line in an over-budget set")
		}
		old := c.tags.InvalidateIndex(idx)
		c.retire(set, old)
		c.extra.SpaceEvictions++
	}
}

// retire writes back a displaced line and releases its segments.
func (c *Cache) retire(set int, evicted cache.Entry[tagPayload]) {
	c.usedSegs[set] -= evicted.Payload.segs
	if evicted.Dirty {
		c.mem.Write(evicted.Addr, evicted.Payload.data, memory.Writeback)
		c.stats.Writebacks++
	}
}

// DecompressionCycles reports C-Pack's serial-decode hit latency: the
// decompressor emits two words per cycle over sixteen word pairs.
func (c *Cache) DecompressionCycles() float64 { return 8 }

// Stats implements llc.Cache.
func (c *Cache) Stats() llc.Stats { return c.stats }

// ResetStats implements llc.Cache.
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

// Snapshot is the C-Pack release snapshot: the pattern-mix counters.
type Snapshot struct {
	Extra ExtraStats
}

// Clone implements llc.ExtraSnapshot. ExtraStats is a pure value type
// (the histogram is an array), so a copy is already deep.
func (s *Snapshot) Clone() llc.ExtraSnapshot {
	cp := *s
	return &cp
}

// Release implements llc.Cache: it extracts the statistics snapshot and
// parks the tag array for the next cache of the same geometry. The cache
// must not be used afterwards.
func (c *Cache) Release() llc.StatsSnapshot {
	if c.tags == nil {
		panic("cpack: Release called twice")
	}
	snap := &Snapshot{Extra: c.extra}
	tagPool.Put(c.tags)
	c.tags = nil
	c.usedSegs = nil
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
