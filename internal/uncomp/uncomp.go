// Package uncomp implements the conventional (uncompressed) last-level
// cache: the evaluation baseline, also instantiated at 2× capacity for
// the hypothetical comparison cache of §6.1.
package uncomp

import (
	"sort"

	"repro/internal/cache"
	"repro/internal/line"
	"repro/internal/llc"
	"repro/internal/memory"
)

// Config sizes a conventional LLC.
type Config struct {
	// SizeBytes is the data capacity (1MB baseline, 2MB hypothetical).
	SizeBytes int
	// Ways is the associativity (8 in Table 1).
	Ways int
	// Policy is the tag replacement policy ("plru" in the paper).
	Policy string
}

// DefaultConfig returns the paper's baseline LLC: 1MB, 8-way, pseudo-LRU.
func DefaultConfig() Config {
	return Config{SizeBytes: 1 << 20, Ways: 8, Policy: "plru"}
}

// Cache is a conventional write-back, write-allocate LLC storing full
// 64-byte lines.
type Cache struct {
	name      string
	tags      *cache.Array[line.Line]
	mem       *memory.Store
	stats     llc.Stats
	cfg       Config
	keepLines bool
}

var _ llc.Cache = (*Cache)(nil)

// tagPool parks released tag arrays for the next cache of the same
// geometry (docs/performance.md, "The release lifecycle").
var tagPool = cache.NewArrayPool[line.Line]()

// New builds a conventional LLC named name over mem.
func New(name string, cfg Config, mem *memory.Store) *Cache {
	return &Cache{
		name: name,
		tags: tagPool.New(cache.LineConfig(cfg.SizeBytes, cfg.Ways, cfg.Policy)),
		mem:  mem,
		cfg:  cfg,
	}
}

// Name implements llc.Cache.
func (c *Cache) Name() string { return c.name }

// Read implements llc.Cache.
func (c *Cache) Read(addr line.Addr) (line.Line, bool) {
	addr = addr.LineAddr()
	c.stats.Reads++
	if e, _ := c.tags.Lookup(addr); e != nil {
		c.stats.ReadHits++
		return e.Payload, true
	}
	data := c.fill(addr)
	return data, false
}

// Write implements llc.Cache.
func (c *Cache) Write(addr line.Addr, data line.Line) bool {
	addr = addr.LineAddr()
	c.stats.Writes++
	if e, _ := c.tags.Lookup(addr); e != nil {
		c.stats.WriteHits++
		e.Payload = data
		e.Dirty = true
		return true
	}
	// Write-allocate: install the new content directly (the whole line is
	// provided by the upper level), marked dirty.
	e := c.insert(addr)
	e.Payload = data
	e.Dirty = true
	return false
}

// fill services a read miss from memory.
func (c *Cache) fill(addr line.Addr) line.Line {
	data := c.mem.Read(addr, memory.Fill)
	c.stats.Fills++
	e := c.insert(addr)
	e.Payload = data
	return data
}

// insert allocates a tag for addr, writing back any dirty victim.
func (c *Cache) insert(addr line.Addr) *cache.Entry[line.Line] {
	e, _, evicted, had := c.tags.Insert(addr)
	if had && evicted.Dirty {
		c.mem.Write(evicted.Addr, evicted.Payload, memory.Writeback)
		c.stats.Writebacks++
	}
	return e
}

// Stats implements llc.Cache.
func (c *Cache) Stats() llc.Stats { return c.stats }

// ResetStats implements llc.Cache.
func (c *Cache) ResetStats() {
	c.stats = llc.Stats{}
	c.tags.ResetStats()
}

// Footprint implements llc.Cache: a conventional cache stores every
// resident line uncompressed.
func (c *Cache) Footprint() llc.Footprint {
	n := c.tags.CountValid()
	return llc.Footprint{
		ResidentLines:  n,
		DataBytesUsed:  n * line.Size,
		DataBytesTotal: c.cfg.SizeBytes,
	}
}

// Contents returns the resident lines (address → data): an independent
// view of the resident set that tests check Release's line snapshot
// against.
func (c *Cache) Contents() map[line.Addr]line.Line {
	out := make(map[line.Addr]line.Line, c.tags.CountValid())
	c.tags.ForEach(func(_ int, e *cache.Entry[line.Line]) {
		out[e.Addr] = e.Payload
	})
	return out
}

// Snapshot is the conventional cache's release snapshot. Lines holds the
// resident lines in ascending address order — the input to the
// snapshot-based motivation experiments (Figs. 1, 2, 5) — when the cache
// was asked to keep them (KeepLines), and is nil otherwise: a 1MB cache's
// lines are a megabyte that no other report reads, and every released
// snapshot is persisted by the run-level artifact cache.
type Snapshot struct {
	Lines []line.Line
}

// Clone implements llc.ExtraSnapshot.
func (s *Snapshot) Clone() llc.ExtraSnapshot {
	cp := &Snapshot{}
	if s.Lines != nil {
		cp.Lines = make([]line.Line, len(s.Lines))
		copy(cp.Lines, s.Lines)
	}
	return cp
}

// KeepLines makes Release put the resident lines into the snapshot.
// Call it before the cache is released.
func (c *Cache) KeepLines() { c.keepLines = true }

// Release implements llc.Cache: it extracts the snapshot (with the
// resident lines in ascending address order if KeepLines was called) and
// parks the tag array for the next cache of the same geometry. The cache
// must not be used afterwards.
func (c *Cache) Release() llc.StatsSnapshot {
	if c.tags == nil {
		panic("uncomp: cache released twice")
	}
	snap := &Snapshot{}
	if c.keepLines {
		type resident struct {
			addr line.Addr
			data line.Line
		}
		pairs := make([]resident, 0, c.tags.CountValid())
		c.tags.ForEach(func(_ int, e *cache.Entry[line.Line]) {
			pairs = append(pairs, resident{e.Addr, e.Payload})
		})
		sort.Slice(pairs, func(i, j int) bool { return pairs[i].addr < pairs[j].addr })
		snap.Lines = make([]line.Line, len(pairs))
		for i := range pairs {
			snap.Lines[i] = pairs[i].data
		}
	}
	tagPool.Put(c.tags)
	c.tags = nil
	return llc.StatsSnapshot{Design: c.name, Stats: c.stats, Extra: snap}
}
