// Package dedupcache implements the Dedup LLC (Tian, Khan, Jiménez, Loh;
// ICS 2014), the state-of-the-art inter-cacheline baseline of §2.3: a
// decoupled cache in which several tags may point to one shared copy of
// identical data, located at insertion time via a hash table of recent
// data fingerprints and verified against the actual block contents.
//
// Tags sharing a data block form a doubly-linked list so that evicting the
// block can evict every referencing tag (the paper's noted overhead).
package dedupcache

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/line"
	"repro/internal/llc"
	"repro/internal/memory"
)

// Config sizes a Dedup LLC; DefaultConfig matches Table 2.
type Config struct {
	// TagEntries is the tag-array size (2× conventional at iso-silicon).
	TagEntries int
	// TagWays is the tag associativity.
	TagWays int
	// DataEntries is the number of 64-byte data blocks.
	DataEntries int
	// HashEntries is the fingerprint hash-table size (most-recently-used
	// fingerprints; 8192 24-bit entries in Table 2).
	HashEntries int
}

// DefaultConfig returns the Table 2 iso-silicon Dedup configuration.
func DefaultConfig() Config {
	return Config{TagEntries: 32768, TagWays: 8, DataEntries: 11700, HashEntries: 8192}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.TagEntries <= 0 || c.TagWays <= 0 || c.TagEntries%c.TagWays != 0 {
		return fmt.Errorf("dedupcache: bad tag geometry %d/%d", c.TagEntries, c.TagWays)
	}
	if c.DataEntries <= 0 || c.HashEntries <= 0 {
		return fmt.Errorf("dedupcache: bad data/hash geometry")
	}
	return nil
}

// tagPayload links a tag into its data block's tag list.
type tagPayload struct {
	dataIdx    int // index into the data array; -1 when unset
	prev, next int // doubly-linked list of tags sharing dataIdx; -1 ends
}

// dataEntry is one 64-byte block shared by one or more tags.
type dataEntry struct {
	valid  bool
	data   line.Line
	head   int // first tag in the sharing list
	refs   int
	refBit bool // clock replacement state
}

// hashSlot is one hash-table entry: a content fingerprint and the data
// block it was last seen in.
type hashSlot struct {
	valid   bool
	fp      uint16
	dataIdx int
}

// ExtraStats counts Dedup-specific events.
type ExtraStats struct {
	// Insertions counts line installs; Deduped counts installs that found
	// an identical resident block.
	Insertions uint64
	Deduped    uint64
	// FalseMatches counts fingerprint hits whose verification against the
	// full block failed (§2.3: rare in practice).
	FalseMatches uint64
	// ListEvictions counts tags evicted because their shared data block
	// was evicted.
	ListEvictions uint64
}

// Cache is a Dedup LLC.
type Cache struct {
	cfg  Config
	tags *cache.Array[tagPayload]
	dataArrays
	clock int
	mem   *memory.Store

	stats llc.Stats
	extra ExtraStats
}

var _ llc.Cache = (*Cache)(nil)

// dataArrays is a cache's data, free-list and hash-table storage, parked
// in arrayPool by geometry when the cache is released.
type dataArrays struct {
	data  []dataEntry
	free  []int
	table []hashSlot
}

// dataGeom keys arrayPool.
type dataGeom struct{ dataEntries, hashEntries int }

// Pools of released bulk state, keyed by geometry (docs/performance.md,
// "The release lifecycle").
var (
	tagPool   = cache.NewArrayPool[tagPayload]()
	arrayPool = cache.NewPool[dataGeom, dataArrays]()
)

// New builds a Dedup LLC over mem.
func New(cfg Config, mem *memory.Store) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	a, ok := arrayPool.Get(dataGeom{cfg.DataEntries, cfg.HashEntries})
	if ok {
		clear(a.data)
		clear(a.table)
		a.free = a.free[:cfg.DataEntries]
	} else {
		a = dataArrays{
			data:  make([]dataEntry, cfg.DataEntries),
			free:  make([]int, cfg.DataEntries),
			table: make([]hashSlot, cfg.HashEntries),
		}
	}
	// Blocks are handed out in ascending index order.
	for i := range a.free {
		a.free[i] = cfg.DataEntries - 1 - i
	}
	return &Cache{
		cfg: cfg,
		tags: tagPool.New(cache.Config{
			Entries: cfg.TagEntries, Ways: cfg.TagWays, Policy: "plru",
		}),
		dataArrays: a,
		mem:        mem,
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
func (c *Cache) Name() string { return "Dedup" }

// Extra returns the Dedup-specific statistics.
func (c *Cache) Extra() ExtraStats { return c.extra }

// fingerprint computes the 16-bit content hash used by the hash table.
func fingerprint(l *line.Line) uint16 {
	var h uint64 = 0xcbf29ce484222325
	for _, w := range l.Words() {
		h ^= w
		h *= 0x100000001b3
	}
	return uint16(h ^ h>>16 ^ h>>32 ^ h>>48)
}

func (c *Cache) slotOf(fp uint16) *hashSlot {
	return &c.table[int(fp)%len(c.table)]
}

// Read implements llc.Cache.
//
//thesaurus:hotpath
func (c *Cache) Read(addr line.Addr) (line.Line, bool) {
	addr = addr.LineAddr()
	c.stats.Reads++
	if e, _ := c.tags.Lookup(addr); e != nil {
		c.stats.ReadHits++
		d := &c.data[e.Payload.dataIdx]
		d.refBit = true
		return d.data, true
	}
	data := c.mem.Read(addr, memory.Fill)
	c.stats.Fills++
	c.install(addr, data, false)
	return data, false
}

// Write implements llc.Cache. A write to a shared block detaches the tag
// (copy-on-write) and re-runs the insertion data path with the new value,
// which may re-deduplicate against a different block.
//
//thesaurus:hotpath
func (c *Cache) Write(addr line.Addr, data line.Line) bool {
	addr = addr.LineAddr()
	c.stats.Writes++
	if e, idx := c.tags.Lookup(addr); e != nil {
		c.stats.WriteHits++
		c.detach(idx, e)
		c.attach(idx, e, data)
		e.Dirty = true
		return true
	}
	c.install(addr, data, true)
	return false
}

// install allocates a tag and runs the dedup insertion path.
func (c *Cache) install(addr line.Addr, data line.Line, dirty bool) {
	e, idx, evicted, had := c.tags.Insert(addr)
	if had {
		c.retireTagCopy(evicted)
	}
	e.Payload = tagPayload{dataIdx: -1, prev: -1, next: -1}
	c.attach(idx, e, data)
	e.Dirty = dirty
	c.extra.Insertions++
}

// attach points tag idx at a data block holding data, deduplicating when
// an identical block is found via the hash table (actions ① and ② of
// Fig. 4), and allocating/evicting otherwise.
func (c *Cache) attach(idx int, e *cache.Entry[tagPayload], data line.Line) {
	fp := fingerprint(&data)
	slot := c.slotOf(fp)
	if slot.valid && slot.fp == fp {
		d := &c.data[slot.dataIdx]
		if d.valid {
			if d.data == data {
				// Verified duplicate: join the sharing list.
				c.linkTag(slot.dataIdx, idx, e)
				c.extra.Deduped++
				d.refBit = true
				return
			}
			c.extra.FalseMatches++
		}
	}
	// Unique content: allocate a fresh data block.
	dataIdx := c.allocData()
	d := &c.data[dataIdx]
	*d = dataEntry{valid: true, data: data, head: idx, refs: 1, refBit: true}
	e.Payload.dataIdx = dataIdx
	e.Payload.prev, e.Payload.next = -1, -1
	*slot = hashSlot{valid: true, fp: fp, dataIdx: dataIdx}
}

// linkTag prepends tag idx to data block dataIdx's sharing list.
func (c *Cache) linkTag(dataIdx, idx int, e *cache.Entry[tagPayload]) {
	d := &c.data[dataIdx]
	e.Payload.dataIdx = dataIdx
	e.Payload.prev = -1
	e.Payload.next = d.head
	if d.head >= 0 {
		c.tags.EntryAt(d.head).Payload.prev = idx
	}
	d.head = idx
	d.refs++
}

// detach removes tag idx from its data block's sharing list, freeing the
// block when the last reference leaves.
func (c *Cache) detach(idx int, e *cache.Entry[tagPayload]) {
	p := e.Payload
	if p.dataIdx < 0 {
		return
	}
	d := &c.data[p.dataIdx]
	if p.prev >= 0 {
		c.tags.EntryAt(p.prev).Payload.next = p.next
	} else {
		d.head = p.next
	}
	if p.next >= 0 {
		c.tags.EntryAt(p.next).Payload.prev = p.prev
	}
	d.refs--
	if d.refs == 0 {
		c.freeData(p.dataIdx)
	}
	e.Payload = tagPayload{dataIdx: -1, prev: -1, next: -1}
}

// retireTagCopy handles a tag displaced by the tag replacement policy.
// The copy's list links are stale only if another detach touched them,
// which cannot happen between Insert and this call.
func (c *Cache) retireTagCopy(evicted cache.Entry[tagPayload]) {
	if evicted.Dirty {
		c.mem.Write(evicted.Addr, c.data[evicted.Payload.dataIdx].data, memory.Writeback)
		c.stats.Writebacks++
	}
	// Unlink using the copied pointers.
	p := evicted.Payload
	d := &c.data[p.dataIdx]
	if p.prev >= 0 {
		c.tags.EntryAt(p.prev).Payload.next = p.next
	} else {
		d.head = p.next
	}
	if p.next >= 0 {
		c.tags.EntryAt(p.next).Payload.prev = p.prev
	}
	d.refs--
	if d.refs == 0 {
		c.freeData(p.dataIdx)
	}
}

// freeData invalidates data block dataIdx and any hash slot naming it.
func (c *Cache) freeData(dataIdx int) {
	c.data[dataIdx].valid = false
	c.free = append(c.free, dataIdx)
	// Lazy hash-table hygiene: a slot pointing at an invalid or reused
	// block fails verification, but clear exact matches eagerly.
	fp := fingerprint(&c.data[dataIdx].data)
	if s := c.slotOf(fp); s.valid && s.dataIdx == dataIdx {
		s.valid = false
	}
}

// allocData returns a free data index, evicting a block (and all its
// tags) with a clock policy when none is free.
func (c *Cache) allocData() int {
	if n := len(c.free); n > 0 {
		idx := c.free[n-1]
		c.free = c.free[:n-1]
		return idx
	}
	// Clock sweep: skip recently referenced blocks once.
	for spins := 0; ; spins++ {
		d := &c.data[c.clock]
		victim := c.clock
		c.clock = (c.clock + 1) % len(c.data)
		if !d.valid {
			continue
		}
		if d.refBit && spins < 2*len(c.data) {
			d.refBit = false
			continue
		}
		c.evictData(victim)
		idx := c.free[len(c.free)-1]
		c.free = c.free[:len(c.free)-1]
		return idx
	}
}

// evictData evicts block dataIdx: every tag in its sharing list is
// written back (if dirty) and invalidated.
func (c *Cache) evictData(dataIdx int) {
	d := &c.data[dataIdx]
	for t := d.head; t >= 0; {
		e := c.tags.EntryAt(t)
		next := e.Payload.next
		if e.Dirty {
			c.mem.Write(e.Addr, d.data, memory.Writeback)
			c.stats.Writebacks++
		}
		c.tags.InvalidateIndex(t)
		c.extra.ListEvictions++
		t = next
	}
	d.head = -1
	d.refs = 0
	c.freeData(dataIdx)
}

// Stats implements llc.Cache.
func (c *Cache) Stats() llc.Stats { return c.stats }

// ResetStats implements llc.Cache.
func (c *Cache) ResetStats() {
	c.stats = llc.Stats{}
	c.extra = ExtraStats{}
	c.tags.ResetStats()
}

// Footprint implements llc.Cache: resident addresses versus the unique
// data blocks actually stored.
func (c *Cache) Footprint() llc.Footprint {
	used := 0
	for i := range c.data {
		if c.data[i].valid {
			used++
		}
	}
	return llc.Footprint{
		ResidentLines:  c.tags.CountValid(),
		DataBytesUsed:  used * line.Size,
		DataBytesTotal: c.cfg.DataEntries * line.Size,
	}
}

// Release implements llc.Cache: it extracts the counters and parks the
// tag, data, free-list and hash arrays for the next cache of the same
// geometry. The cache must not be used afterwards.
func (c *Cache) Release() llc.StatsSnapshot {
	if c.tags == nil {
		panic("dedupcache: Release called twice")
	}
	tagPool.Put(c.tags)
	arrayPool.Put(dataGeom{c.cfg.DataEntries, c.cfg.HashEntries}, c.dataArrays)
	c.tags = nil
	c.dataArrays = dataArrays{}
	return llc.StatsSnapshot{Design: c.Name(), Stats: c.stats, Extra: llc.Counters{
		{Name: "insertions", Value: c.extra.Insertions},
		{Name: "deduped", Value: c.extra.Deduped},
		{Name: "false_matches", Value: c.extra.FalseMatches},
		{Name: "list_evictions", Value: c.extra.ListEvictions},
	}}
}

// CheckInvariants validates refcounts and list structure; used by tests.
// (The access path itself allocates only at construction: the hash chain
// and free list are fixed-capacity, so no scratch arena is needed here.)
func (c *Cache) CheckInvariants() error {
	refs := make(map[int]int, c.cfg.DataEntries)
	var err error
	c.tags.ForEach(func(idx int, e *cache.Entry[tagPayload]) {
		di := e.Payload.dataIdx
		if di < 0 || di >= len(c.data) || !c.data[di].valid {
			err = fmt.Errorf("tag %d points at invalid data %d", idx, di)
			return
		}
		refs[di]++
	})
	if err != nil {
		return err
	}
	for i := range c.data {
		d := &c.data[i]
		if !d.valid {
			continue
		}
		if refs[i] != d.refs {
			return fmt.Errorf("data %d: refs=%d but %d referencing tags", i, d.refs, refs[i])
		}
		// Walk the list and confirm it reaches exactly refs tags.
		n := 0
		for t := d.head; t >= 0; t = c.tags.EntryAt(t).Payload.next {
			if c.tags.EntryAt(t).Payload.dataIdx != i {
				return fmt.Errorf("data %d: list member %d points elsewhere", i, t)
			}
			n++
			if n > d.refs {
				break
			}
		}
		if n != d.refs {
			return fmt.Errorf("data %d: list has %d members, refs=%d", i, n, d.refs)
		}
	}
	return nil
}
