package ideal

import (
	"repro/internal/cache"
	"repro/internal/diffenc"
	"repro/internal/line"
	"repro/internal/llc"
	"repro/internal/memory"
	"repro/internal/xrand"
)

// This file keeps the straightforward implementations of the online
// Ideal-Diff cache and of the snapshot word index — a map from word to a
// slice of ids, every visited candidate diffed — as test-only references.
// The optimized code must compute exactly what they compute; the tests
// below drive both in lockstep over streams built to hit each quirk of
// the search (DESIGN.md, "The Ideal-Diff candidate search").

type refPayload struct {
	data line.Line
	cost int
}

type refCache struct {
	cfg   Config
	tags  *cache.Array[refPayload]
	used  int
	clock int
	mem   *memory.Store
	idx   map[uint64][]int // word → tag indices (lazily cleaned)
	rng   *xrand.Rand

	stats llc.Stats

	// Test-only instrumentation: which quirks a stream exercised.
	installing int  // tag being installed while cost runs, or -1
	revived    bool // that tag was invalid before the install
	hits       refQuirks
}

// refQuirks counts the search behaviours the lockstep streams target.
type refQuirks struct {
	staleDropped int // index entries dropped by a scan
	capped       int // indexLine appends refused at maxCandidates
	breaks       int // scans cut short at seen > maxCandidates
	earlyExits   int // word loops ended by an exact duplicate
	freshProbes  int // random probes that landed on the zeroed new tag
	freshListed  int // live list visits to the zeroed new tag
	freshRevived int // ... where that tag had been invalid before the install
}

func newRefCache(cfg Config, mem *memory.Store) *refCache {
	return &refCache{
		cfg: cfg,
		tags: cache.New[refPayload](cache.Config{
			Entries: cfg.TagEntries, Ways: cfg.TagWays, Policy: "plru",
		}),
		mem:        mem,
		idx:        make(map[uint64][]int),
		rng:        xrand.New(cfg.Seed),
		installing: -1,
	}
}

func (c *refCache) Read(addr line.Addr) (line.Line, bool) {
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

func (c *refCache) Write(addr line.Addr, data line.Line) bool {
	addr = addr.LineAddr()
	c.stats.Writes++
	if e, idx := c.tags.Lookup(addr); e != nil {
		c.stats.WriteHits++
		c.used -= e.Payload.cost
		e.Payload = refPayload{data: data, cost: c.cost(&data)}
		c.used += e.Payload.cost
		c.indexLine(idx, &data)
		c.evictToBudget(addr)
		e.Dirty = true
		return true
	}
	c.install(addr, data, true)
	return false
}

func (c *refCache) cost(data *line.Line) int {
	if data.IsZero() {
		return 0
	}
	best := line.Size
	if z := diffenc.DiffSizeBytes(data.PopCountNonZero()); z < best {
		best = z
	}
	probe := func(id int) {
		e := c.tags.EntryAt(id)
		if !e.Valid {
			return
		}
		if d := diffenc.DiffSizeBytes(line.DiffBytes(data, &e.Payload.data)); d < best {
			best = d
		}
	}
	seen := 0
	i := 0
	for ; i < line.WordsPerLine && best > diffenc.DiffSizeBytes(0); i++ {
		lst := c.idx[data.Word(i)]
		kept := lst[:0]
		for _, id := range lst {
			e := c.tags.EntryAt(id)
			if !e.Valid || !hasWord(&e.Payload.data, data.Word(i)) {
				c.hits.staleDropped++
				continue // lazily drop stale index entries
			}
			if id == c.installing {
				c.hits.freshListed++
				if c.revived {
					c.hits.freshRevived++
				}
			}
			kept = append(kept, id)
			probe(id)
			seen++
			if seen > maxCandidates {
				c.hits.breaks++
				break
			}
		}
		c.idx[data.Word(i)] = kept
	}
	if i < line.WordsPerLine {
		c.hits.earlyExits++
	}
	for p := 0; p < randomProbes; p++ {
		id := c.rng.Intn(c.cfg.TagEntries)
		if id == c.installing {
			c.hits.freshProbes++
		}
		probe(id)
	}
	return best
}

func (c *refCache) indexLine(tagIdx int, l *line.Line) {
	for i := 0; i < line.WordsPerLine; i++ {
		w := l.Word(i)
		lst := c.idx[w]
		if len(lst) < maxCandidates {
			c.idx[w] = append(lst, tagIdx)
		} else {
			c.hits.capped++
		}
	}
}

func (c *refCache) install(addr line.Addr, data line.Line, dirty bool) {
	e, idx, evicted, had := c.tags.Insert(addr)
	if had {
		c.retire(evicted)
	}
	c.installing, c.revived = idx, !had
	e.Payload = refPayload{data: data, cost: c.cost(&data)}
	c.installing = -1
	e.Dirty = dirty
	c.used += e.Payload.cost
	c.indexLine(idx, &data)
	c.evictToBudget(addr)
}

func (c *refCache) evictToBudget(keep line.Addr) {
	for c.used > c.cfg.DataBytes {
		e := c.tags.EntryAt(c.clock)
		victim := c.clock
		c.clock = (c.clock + 1) % c.cfg.TagEntries
		if !e.Valid || e.Addr == keep.LineAddr() {
			continue
		}
		old := c.tags.InvalidateIndex(victim)
		c.retire(old)
	}
}

func (c *refCache) retire(evicted cache.Entry[refPayload]) {
	c.used -= evicted.Payload.cost
	if evicted.Dirty {
		c.mem.Write(evicted.Addr, evicted.Payload.data, memory.Writeback)
		c.stats.Writebacks++
	}
}

func (c *refCache) Footprint() llc.Footprint {
	return llc.Footprint{
		ResidentLines:  c.tags.CountValid(),
		DataBytesUsed:  c.used,
		DataBytesTotal: c.cfg.DataBytes,
	}
}

// refWordIndex is the snapshot index as a map of id slices.
type refWordIndex struct {
	byWord map[uint64][]int
	all    []int
	rng    *xrand.Rand
}

func newRefWordIndex(seed uint64) *refWordIndex {
	return &refWordIndex{byWord: make(map[uint64][]int), rng: xrand.New(seed)}
}

func (ix *refWordIndex) add(id int, l *line.Line) {
	for i := 0; i < line.WordsPerLine; i++ {
		w := l.Word(i)
		lst := ix.byWord[w]
		if len(lst) < maxCandidates {
			ix.byWord[w] = append(lst, id)
		}
	}
	ix.all = append(ix.all, id)
}

func (ix *refWordIndex) nearestExcluding(l *line.Line, lines []line.Line, self int) (int, bool) {
	best, bestDiff := -1, line.Size+1
	seen := 0
	consider := func(id int) {
		if id == self {
			return
		}
		seen++
		if d := line.DiffBytes(l, &lines[id]); d < bestDiff {
			best, bestDiff = id, d
		}
	}
	for i := 0; i < line.WordsPerLine && bestDiff > 0; i++ {
		for _, id := range ix.byWord[l.Word(i)] {
			consider(id)
			if seen > maxCandidates {
				break
			}
		}
	}
	for p := 0; p < randomProbes && len(ix.all) > 0; p++ {
		consider(ix.all[ix.rng.Intn(len(ix.all))])
	}
	return best, best >= 0
}

func refDiffSnapshot(lines []line.Line) float64 {
	if len(lines) == 0 {
		return 1
	}
	idx := newRefWordIndex(0x1dea)
	costBytes := 0
	for i := range lines {
		l := &lines[i]
		if l.IsZero() {
			continue
		}
		cost := line.Size
		if best, ok := idx.nearestExcluding(l, lines, -1); ok {
			if d := line.DiffBytes(l, &lines[best]); diffenc.DiffSizeBytes(d) < cost {
				cost = diffenc.DiffSizeBytes(d)
			}
		}
		if z := diffenc.DiffSizeBytes(l.PopCountNonZero()); z < cost {
			cost = z
		}
		costBytes += cost
		idx.add(i, l)
	}
	if costBytes == 0 {
		return float64(len(lines))
	}
	return float64(len(lines)*line.Size) / float64(costBytes)
}

func refDiffCDF(lines []line.Line) [line.Size + 1]float64 {
	var cdf [line.Size + 1]float64
	if len(lines) < 2 {
		return cdf
	}
	idx := newRefWordIndex(0x2cdf)
	for i := range lines {
		idx.add(i, &lines[i])
	}
	counts := make([]int, line.Size+1)
	for i := range lines {
		best := line.Size
		if j, ok := idx.nearestExcluding(&lines[i], lines, i); ok {
			best = line.DiffBytes(&lines[i], &lines[j])
		}
		counts[best]++
	}
	cum := 0
	for n := 0; n <= line.Size; n++ {
		cum += counts[n]
		cdf[n] = float64(cum) / float64(len(lines))
	}
	return cdf
}
