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

// New builds a conventional LLC named name over mem.
func New(name string, cfg Config, mem *memory.Store) *Cache {
	return &Cache{
		name: name,
		tags: cache.New[line.Line](cache.LineConfig(cfg.SizeBytes, cfg.Ways, cfg.Policy)),
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

// SetIndex reports the tag set owning addr. Together with NumTagSets it
// makes the conventional cache set-partitioned (sim.SetPartitioned): an
// access to addr touches only state owned by addr's set — the tag entries,
// that set's replacement bits, and the per-cache statistics counters —
// so an event stream partitioned by set replays identically on disjoint
// shard caches.
func (c *Cache) SetIndex(addr line.Addr) int { return c.tags.SetOf(addr) }

// NumTagSets reports the tag set count (see SetIndex).
func (c *Cache) NumTagSets() int { return c.tags.Config().Sets() }

// Contents returns the resident lines (address → data), used for the
// snapshot-based motivation experiments (Figs. 1, 2, 5).
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

// KeepLines makes Release and MergeRelease put the resident lines into
// the snapshot. Call it before the cache is released.
func (c *Cache) KeepLines() { c.keepLines = true }

// Release implements llc.Cache: it extracts the snapshot (with the
// resident lines if KeepLines was called) and frees the tag array. The
// cache must not be used afterwards.
func (c *Cache) Release() llc.StatsSnapshot { return MergeRelease([]*Cache{c}) }

// MergeRelease releases every shard of a set-sharded replay and merges
// them into the snapshot the equivalent unsharded cache would have
// produced: statistics summed field-wise and, if the shards keep their
// lines (KeepLines on every shard), the union of resident lines in
// ascending address order. Set-sharding partitions addresses by tag set,
// so the shards hold disjoint address ranges and the merged ordering
// equals the serial ordering. The shards must not be used afterwards.
func MergeRelease(shards []*Cache) llc.StatsSnapshot {
	if len(shards) == 0 {
		panic("uncomp: MergeRelease of zero shards")
	}
	type resident struct {
		addr line.Addr
		data line.Line
	}
	var pairs []resident
	var stats llc.Stats
	keep := shards[0].keepLines
	for _, c := range shards {
		if c.tags == nil {
			panic("uncomp: cache released twice")
		}
		if c.keepLines != keep {
			panic("uncomp: MergeRelease of shards that disagree on KeepLines")
		}
		if keep {
			c.tags.ForEach(func(_ int, e *cache.Entry[line.Line]) {
				pairs = append(pairs, resident{e.Addr, e.Payload})
			})
		}
		s := c.stats
		stats.Reads += s.Reads
		stats.Writes += s.Writes
		stats.ReadHits += s.ReadHits
		stats.WriteHits += s.WriteHits
		stats.Fills += s.Fills
		stats.Writebacks += s.Writebacks
		c.tags = nil
	}
	snap := &Snapshot{}
	if keep {
		sort.Slice(pairs, func(i, j int) bool { return pairs[i].addr < pairs[j].addr })
		snap.Lines = make([]line.Line, len(pairs))
		for i := range pairs {
			snap.Lines[i] = pairs[i].data
		}
	}
	return llc.StatsSnapshot{Design: shards[0].name, Stats: stats, Extra: snap}
}
