package ideal

import (
	"math/bits"

	"repro/internal/cache"
	"repro/internal/diffenc"
	"repro/internal/line"
	"repro/internal/llc"
	"repro/internal/memory"
	"repro/internal/xrand"
)

// Config sizes the online Ideal-Diff cache: tag count matching the
// compressed designs and a data-byte budget matching Thesaurus.
type Config struct {
	TagEntries int
	TagWays    int
	DataBytes  int
	Seed       uint64
}

// DefaultConfig matches the iso-silicon envelope of Table 2.
func DefaultConfig() Config {
	return Config{TagEntries: 32768, TagWays: 8, DataBytes: 1462 * 512, Seed: 0x1dea1}
}

// tagState is the per-tag search state, kept beside the tag array so the
// candidate scan reads one 32-byte record per candidate instead of a
// whole tag entry and line.
type tagState struct {
	// sig is the line's signature (see signature).
	sig signature
	// gen is bumped whenever the tag's validity or contents change. An
	// index entry stamped with the current gen names a tag that still
	// holds the line it was indexed with.
	gen uint64
}

// Cache is the online ideal-diff LLC (the "Ideal" series in Fig. 13).
//
// Each line is charged the size observed at insertion (the paper's ideal
// searches the cache at insertion time), so the tag payload is just that
// frozen cost; line contents live in a dense array indexed by tag.
type Cache struct {
	cfg   Config
	tags  *cache.Array[int32]
	used  int
	clock int
	mem   *memory.Store
	rng   *xrand.Rand

	tagArrays
	idBits uint
	idMask uint64

	// The line being inserted: its word-table slots and its signature,
	// computed once and shared by cost, store and indexLine.
	slots [line.WordsPerLine]int
	sig   signature
	// queue lists the tags the current search has queued for a diff.
	queue []int

	stats llc.Stats
}

// tagArrays is the per-tag bulk state beside the tag array, parked in
// arrayPool by tag count when a cache is released.
type tagArrays struct {
	lines []line.Line // contents by tag index
	state []tagState  // search state by tag index
	valid []uint64    // bitset of valid tags, for the random probes
	// queued marks the tags in the current search's queue, a bitset that
	// is all zero between searches.
	queued []uint64
	// words maps a word to stamped tag references, gen<<idBits | tag
	// (lazily cleaned: a reference whose tag no longer holds the word
	// leaves its list only when a scan reaches it).
	words wordTable
}

// Pools of released bulk state, keyed by geometry (docs/performance.md,
// "The release lifecycle").
var (
	tagPool   = cache.NewArrayPool[int32]()
	arrayPool = cache.NewPool[int, tagArrays]()
)

var _ llc.Cache = (*Cache)(nil)

// New builds the ideal cache over mem.
func New(cfg Config, mem *memory.Store) *Cache {
	idBits := uint(bits.Len(uint(cfg.TagEntries - 1)))
	arrays, ok := arrayPool.Get(cfg.TagEntries)
	if ok {
		clear(arrays.lines)
		clear(arrays.state)
		clear(arrays.valid)
		clear(arrays.queued)
		arrays.words.reset()
	} else {
		arrays = tagArrays{
			lines:  make([]line.Line, cfg.TagEntries),
			state:  make([]tagState, cfg.TagEntries),
			valid:  make([]uint64, (cfg.TagEntries+63)/64),
			queued: make([]uint64, (cfg.TagEntries+63)/64),
		}
	}
	return &Cache{
		cfg: cfg,
		tags: tagPool.New(cache.Config{
			Entries: cfg.TagEntries, Ways: cfg.TagWays, Policy: "plru",
		}),
		tagArrays: arrays,
		mem:       mem,
		rng:       xrand.New(cfg.Seed),
		idBits:    idBits,
		idMask:    1<<idBits - 1,
		// At most maxCandidates+1 visits, one more per later word once
		// the scan has broken off, and the random probes.
		queue: make([]int, 0, maxCandidates+line.WordsPerLine+randomProbes),
	}
}

// Name implements llc.Cache.
func (c *Cache) Name() string { return "Ideal" }

// Read implements llc.Cache.
func (c *Cache) Read(addr line.Addr) (line.Line, bool) {
	addr = addr.LineAddr()
	c.stats.Reads++
	if e, idx := c.tags.Lookup(addr); e != nil {
		c.stats.ReadHits++
		return c.lines[idx], true
	}
	data := c.mem.Read(addr, memory.Fill)
	c.stats.Fills++
	c.install(addr, data, false)
	return data, false
}

// Write implements llc.Cache.
func (c *Cache) Write(addr line.Addr, data line.Line) bool {
	addr = addr.LineAddr()
	c.stats.Writes++
	if e, idx := c.tags.Lookup(addr); e != nil {
		c.stats.WriteHits++
		c.used -= int(e.Payload)
		e.Dirty = true
		c.charge(e, idx, addr, &data) // searched while the tag still holds the old line
		return true
	}
	c.install(addr, data, true)
	return false
}

// install inserts a new line, charging its ideal compressed size.
func (c *Cache) install(addr line.Addr, data line.Line, dirty bool) {
	e, idx, evicted, had := c.tags.Insert(addr)
	if had {
		c.retire(evicted, idx)
	}
	// The new tag is valid and holds a zero line while the search runs,
	// as the tag array's zeroed payload did: lists naming this tag and
	// random probes landing on it see that zero line.
	c.store(idx, &line.Zero, signature{})
	c.valid[idx/64] |= 1 << (idx % 64)
	e.Dirty = dirty
	c.charge(e, idx, addr, &data)
}

// charge prices data against the current contents, stores it in tag idx
// (entry e, at addr) with that frozen cost, indexes it, and evicts until
// the data budget holds again.
func (c *Cache) charge(e *cache.Entry[int32], idx int, addr line.Addr, data *line.Line) {
	c.prepare(data)
	cost := c.cost(data)
	c.store(idx, data, c.sig)
	e.Payload = int32(cost)
	c.used += cost
	c.indexLine(idx, data)
	c.evictToBudget(addr)
}

// store sets tag idx's contents and signature and bumps its generation.
func (c *Cache) store(idx int, l *line.Line, sig signature) {
	c.lines[idx] = *l
	st := &c.state[idx]
	st.sig = sig
	st.gen++
}

// prepare locates l's words in the index and computes its signature.
// Reserving room for all eight words first means indexLine's inserts
// cannot grow the table, so the slots stay valid through cost and
// indexLine.
func (c *Cache) prepare(l *line.Line) {
	c.words.reserve(line.WordsPerLine)
	for i := range c.slots {
		c.slots[i] = c.words.locate(l.Word(i))
	}
	c.sig = lineSignature(l)
}

// cost returns the idealized storage cost of data given current contents:
// the cheapest of a raw line, a diff against the zero line, and a diff
// against the nearest candidate found through data's words (at most
// maxCandidates index visits, lazily dropping stale references) plus
// randomProbes random tags. data must be prepared.
//
// It computes exactly what a scan that diffs every visited candidate
// would: a word's new candidates are diffed after its list scan (nothing
// in a scan depends on the best cost), a tag reached twice is diffed
// once (its contents cannot change within the call), and a candidate
// whose signature bound cannot beat the best cost so far is not diffed
// at all.
func (c *Cache) cost(data *line.Line) int {
	if data.IsZero() {
		return 0
	}
	best := line.Size
	if z := diffenc.DiffSizeBytes(data.PopCountNonZero()); z < best {
		best = z
	}
	queue := c.queue[:0]
	seen := 0
	for i := 0; i < line.WordsPerLine && best > diffenc.DiffSizeBytes(0); i++ {
		w := data.Word(i)
		lst := c.words.at(c.slots[i])
		kept := lst[:0]
		from := len(queue)
		for _, r := range lst {
			id := int(r & c.idMask)
			st := &c.state[id]
			if r>>c.idBits != st.gen {
				if !c.isValid(id) || !hasWord(&c.lines[id], w) {
					continue // lazily drop stale index entries
				}
				r = st.gen<<c.idBits | uint64(id)
			}
			kept = append(kept, r)
			queue = c.enqueue(queue, id)
			seen++
			if seen > maxCandidates {
				break
			}
		}
		c.words.setLen(c.slots[i], len(kept))
		best = c.nearest(data, queue[from:], best)
	}
	from := len(queue)
	for p := 0; p < randomProbes; p++ {
		if id := c.rng.Intn(c.cfg.TagEntries); c.isValid(id) {
			queue = c.enqueue(queue, id)
		}
	}
	best = c.nearest(data, queue[from:], best)
	for _, id := range queue {
		c.queued[id/64] = 0 // every marked tag is in the queue
	}
	c.queue = queue
	return best
}

// enqueue appends tag id to the search's queue unless it is already
// queued.
func (c *Cache) enqueue(queue []int, id int) []int {
	if m := uint64(1) << (id % 64); c.queued[id/64]&m == 0 {
		c.queued[id/64] |= m
		queue = append(queue, id)
	}
	return queue
}

// nearest returns the smaller of best and the cheapest diff of data
// against the lines of the batch's tags, skipping each diff whose
// signature bound cannot beat best. data's signature is c.sig.
func (c *Cache) nearest(data *line.Line, batch []int, best int) int {
	for _, id := range batch {
		if diffenc.DiffSizeBytes(c.sig.bound(&c.state[id].sig)) >= best {
			continue
		}
		if d := diffenc.DiffSizeBytes(line.DiffBytes(data, &c.lines[id])); d < best {
			best = d
		}
	}
	return best
}

// signature holds three per-byte masks of a line: bit i of each mask
// describes byte i — its parity, its lowest bit, and its second-lowest
// bit. Equal bytes agree on all three, so the number of bytes at which
// two signatures disagree never exceeds the lines' DiffBytes. Any odd
// number of flipped bits shows in the parity, and the low bits catch the
// small deltas (counters, pointer offsets) that dominate near-duplicate
// data.
type signature [3]uint64

func lineSignature(l *line.Line) signature {
	var s signature
	for i := 0; i < line.WordsPerLine; i++ {
		x := l.Word(i)
		p := x ^ x>>1
		p ^= p >> 2
		p ^= p >> 4 // bit 8k: parity of bits 8k..8k+7
		s[0] |= gatherByteLSBs(p) << (8 * i)
		s[1] |= gatherByteLSBs(x) << (8 * i)
		s[2] |= gatherByteLSBs(x>>1) << (8 * i)
	}
	return s
}

// bound returns the number of bytes at which s and t disagree: a lower
// bound on the byte distance between their lines.
func (s *signature) bound(t *signature) int {
	return bits.OnesCount64((s[0] ^ t[0]) | (s[1] ^ t[1]) | (s[2] ^ t[2]))
}

// gatherByteLSBs packs bit 0 of each byte of x into one byte (byte i's
// bit lands at bit i), the gather step of line.DiffMask.
func gatherByteLSBs(x uint64) uint64 {
	return ((x & 0x0101010101010101) * 0x0102040810204080) >> 56
}

func hasWord(l *line.Line, w uint64) bool {
	for i := 0; i < line.WordsPerLine; i++ {
		if l.Word(i) == w {
			return true
		}
	}
	return false
}

func (c *Cache) isValid(id int) bool { return c.valid[id/64]&(1<<(id%64)) != 0 }

// indexLine registers the line's words for candidate lookup, stamped with
// the tag's current generation. It appends once per word position, so a
// repeated word lists the tag more than once.
func (c *Cache) indexLine(tagIdx int, l *line.Line) {
	r := c.state[tagIdx].gen<<c.idBits | uint64(tagIdx)
	for i := 0; i < line.WordsPerLine; i++ {
		c.words.add(c.slots[i], l.Word(i), r)
	}
}

// evictToBudget evicts clock victims until the data budget is respected.
func (c *Cache) evictToBudget(keep line.Addr) {
	for c.used > c.cfg.DataBytes {
		e := c.tags.EntryAt(c.clock)
		victim := c.clock
		c.clock = (c.clock + 1) % c.cfg.TagEntries
		if !e.Valid || e.Addr == keep.LineAddr() {
			continue
		}
		old := c.tags.InvalidateIndex(victim)
		c.valid[victim/64] &^= 1 << (victim % 64)
		c.state[victim].gen++
		c.retire(old, victim)
	}
}

// retire writes back and un-charges a displaced line; idx is the tag it
// occupied, whose line array slot still holds its contents.
func (c *Cache) retire(evicted cache.Entry[int32], idx int) {
	c.used -= int(evicted.Payload)
	if evicted.Dirty {
		c.mem.Write(evicted.Addr, c.lines[idx], memory.Writeback)
		c.stats.Writebacks++
	}
}

// DecompressionCycles reports the idealized one-cycle diff application.
func (c *Cache) DecompressionCycles() float64 { return 1 }

// Stats implements llc.Cache.
func (c *Cache) Stats() llc.Stats { return c.stats }

// ResetStats implements llc.Cache.
func (c *Cache) ResetStats() {
	c.stats = llc.Stats{}
	c.tags.ResetStats()
}

// Footprint implements llc.Cache.
func (c *Cache) Footprint() llc.Footprint {
	used := c.used
	return llc.Footprint{
		ResidentLines:  c.tags.CountValid(),
		DataBytesUsed:  used,
		DataBytesTotal: c.cfg.DataBytes,
	}
}

// Release implements llc.Cache: the ideal model keeps no post-run extras,
// so the snapshot carries only the common statistics. The tag array, the
// line and search state, and the candidate index are parked for the next
// cache of the same geometry; the cache must not be used afterwards.
func (c *Cache) Release() llc.StatsSnapshot {
	if c.tags == nil {
		panic("ideal: Release called twice")
	}
	tagPool.Put(c.tags)
	arrayPool.Put(c.cfg.TagEntries, c.tagArrays)
	c.tags = nil
	c.tagArrays = tagArrays{}
	c.queue = nil
	return llc.StatsSnapshot{Design: c.Name(), Stats: c.stats}
}
