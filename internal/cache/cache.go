// Package cache provides the set-associative array substrate shared by
// every cache model in the repository: the L1/L2 tag filters, the
// conventional LLC, and the tag arrays of the compressed designs (which
// attach design-specific payloads to each tag entry).
//
// The array is generic over a payload type so that, e.g., the Thesaurus
// tag entry (lsh / fmt / setptr / segix, Fig. 9) and the Dedup tag entry
// (data pointer + doubly-linked list) reuse one implementation of
// indexing, replacement, and statistics.
package cache

import (
	"fmt"

	"repro/internal/line"
	"repro/internal/plru"
)

// Config describes a set-associative array.
type Config struct {
	// Entries is the total number of tag entries; must be a multiple of
	// Ways.
	Entries int
	// Ways is the associativity.
	Ways int
	// Policy is the replacement policy: "lru" or "plru".
	Policy string
}

// LineConfig returns the Config for a conventional cache of sizeBytes
// capacity with 64-byte lines.
func LineConfig(sizeBytes, ways int, policy string) Config {
	return Config{Entries: sizeBytes / line.Size, Ways: ways, Policy: policy}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Ways <= 0 {
		return fmt.Errorf("cache: non-positive ways %d", c.Ways)
	}
	if c.Entries <= 0 || c.Entries%c.Ways != 0 {
		return fmt.Errorf("cache: entries %d not a positive multiple of ways %d", c.Entries, c.Ways)
	}
	return plru.Check(c.Policy, c.Ways)
}

// Sets returns the number of sets.
func (c Config) Sets() int { return c.Entries / c.Ways }

// Entry is one tag-array entry with a design-specific payload.
type Entry[P any] struct {
	Addr    line.Addr
	Valid   bool
	Dirty   bool
	Payload P
}

// Stats counts array-level events.
type Stats struct {
	Accesses  uint64
	Hits      uint64
	Misses    uint64
	Evictions uint64
}

// HitRate returns Hits/Accesses, or 0 with no accesses.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Array is a set-associative tag array with payloads of type P.
type Array[P any] struct {
	cfg     Config
	sets    int
	entries []Entry[P] // sets × ways, row-major
	// Replacement state, flat: one word of tree bits per set for "plru",
	// or the sets × ways recency order (MRU first) for "lru".
	tree  []uint64
	order []uint8
	stats Stats
	valid int // entries with Valid set (CountValid)
}

// New builds an Array from cfg, panicking on invalid configuration (all
// configurations in this repository are static).
func New[P any](cfg Config) *Array[P] {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	a := &Array[P]{cfg: cfg, sets: cfg.Sets(), entries: make([]Entry[P], cfg.Entries)}
	if cfg.Policy == "lru" {
		a.order = make([]uint8, cfg.Entries)
		for s := 0; s < a.sets; s++ {
			plru.InitLRU(a.order[s*cfg.Ways : (s+1)*cfg.Ways])
		}
	} else {
		a.tree = make([]uint64, a.sets)
	}
	return a
}

// reset returns the array to the state New leaves it in: every entry
// zeroed, the replacement state fresh, the counters zero.
func (a *Array[P]) reset() {
	clear(a.entries)
	clear(a.tree)
	for s := 0; s < len(a.order); s += a.cfg.Ways {
		plru.InitLRU(a.order[s : s+a.cfg.Ways])
	}
	a.stats = Stats{}
	a.valid = 0
}

// touch marks way as the most recently used of its set.
func (a *Array[P]) touch(set, way int) {
	if a.order != nil {
		plru.LRUTouch(a.order[set*a.cfg.Ways:(set+1)*a.cfg.Ways], way)
		return
	}
	plru.TreeTouch(&a.tree[set], a.cfg.Ways, way)
}

// victim returns the way the replacement policy evicts next from set.
func (a *Array[P]) victim(set int) int {
	if a.order != nil {
		return plru.LRUVictim(a.order[set*a.cfg.Ways : (set+1)*a.cfg.Ways])
	}
	return plru.TreeVictim(a.tree[set], a.cfg.Ways)
}

// Config returns the array configuration.
func (a *Array[P]) Config() Config { return a.cfg }

// Stats returns a copy of the counters.
func (a *Array[P]) Stats() Stats { return a.stats }

// ResetStats zeroes the counters (post-warmup measurement windows).
func (a *Array[P]) ResetStats() { a.stats = Stats{} }

// setOf maps an address to its set index.
func (a *Array[P]) setOf(addr line.Addr) int {
	return int(addr.BlockNumber() % uint64(a.sets))
}

// index returns the global entry index for (set, way); this is the stable
// "tag pointer" used by designs whose data arrays point back at tags.
func (a *Array[P]) index(set, way int) int { return set*a.cfg.Ways + way }

// find returns the way holding addr in its set, or -1.
func (a *Array[P]) find(addr line.Addr) (set, way int) {
	addr = addr.LineAddr()
	set = a.setOf(addr)
	base := set * a.cfg.Ways
	for w := 0; w < a.cfg.Ways; w++ {
		e := &a.entries[base+w]
		if e.Valid && e.Addr == addr {
			return set, w
		}
	}
	return set, -1
}

// Lookup probes for addr, counting a hit or miss and updating recency on
// hit. It returns the entry (nil on miss) and its stable index.
func (a *Array[P]) Lookup(addr line.Addr) (*Entry[P], int) {
	a.stats.Accesses++
	set, way := a.find(addr)
	if way < 0 {
		a.stats.Misses++
		return nil, -1
	}
	a.stats.Hits++
	a.touch(set, way)
	return &a.entries[a.index(set, way)], a.index(set, way)
}

// Peek probes for addr without touching statistics or recency.
func (a *Array[P]) Peek(addr line.Addr) (*Entry[P], int) {
	set, way := a.find(addr)
	if way < 0 {
		return nil, -1
	}
	return &a.entries[a.index(set, way)], a.index(set, way)
}

// Insert allocates an entry for addr, evicting the replacement victim if
// the set is full. It returns the new entry (marked valid, clean, with a
// zero payload), its stable index, and — when an eviction occurred — a
// copy of the displaced entry. Insert panics if addr is already present;
// callers must Lookup first.
func (a *Array[P]) Insert(addr line.Addr) (e *Entry[P], idx int, evicted Entry[P], hadEviction bool) {
	addr = addr.LineAddr()
	set, way := a.find(addr)
	if way >= 0 {
		panic(fmt.Sprintf("cache: Insert of resident address %#x", uint64(addr)))
	}
	base := set * a.cfg.Ways
	// Prefer an invalid way.
	victim := -1
	for w := 0; w < a.cfg.Ways; w++ {
		if !a.entries[base+w].Valid {
			victim = w
			break
		}
	}
	if victim < 0 {
		victim = a.victim(set)
		evicted = a.entries[base+victim]
		hadEviction = true
		a.stats.Evictions++
	} else {
		a.valid++
	}
	idx = a.index(set, victim)
	var zero P
	a.entries[idx] = Entry[P]{Addr: addr, Valid: true, Payload: zero}
	a.touch(set, victim)
	return &a.entries[idx], idx, evicted, hadEviction
}

// VictimPeek returns a copy of the entry that Insert would evict for addr
// right now (invalid if a free way exists). Designs that must free data
// space before tag insertion use this to plan.
func (a *Array[P]) VictimPeek(addr line.Addr) Entry[P] {
	set := a.setOf(addr.LineAddr())
	base := set * a.cfg.Ways
	for w := 0; w < a.cfg.Ways; w++ {
		if !a.entries[base+w].Valid {
			return Entry[P]{}
		}
	}
	return a.entries[base+a.victim(set)]
}

// PolicyVictimIndex returns the stable index of the entry the replacement
// policy would evict next in addr's set, or -1 if the set still has a free
// way. Designs that must evict several lines to fit one compressed block
// (BΔI's segmented sets) call this repeatedly.
func (a *Array[P]) PolicyVictimIndex(addr line.Addr) int {
	set := a.setOf(addr.LineAddr())
	base := set * a.cfg.Ways
	for w := 0; w < a.cfg.Ways; w++ {
		if !a.entries[base+w].Valid {
			return -1
		}
	}
	return a.index(set, a.victim(set))
}

// ValidVictimIndex returns the stable index of a valid entry to evict
// from addr's set: the policy victim when it is valid, otherwise any
// valid entry other than addr's own, or -1 when none exists. Unlike
// PolicyVictimIndex it never declines because of free ways — compressed
// designs can exhaust data space while tag ways remain.
func (a *Array[P]) ValidVictimIndex(addr line.Addr) int {
	addr = addr.LineAddr()
	set := a.setOf(addr)
	base := set * a.cfg.Ways
	w := a.victim(set)
	if e := &a.entries[base+w]; e.Valid && e.Addr != addr {
		return a.index(set, w)
	}
	for w := 0; w < a.cfg.Ways; w++ {
		if e := &a.entries[base+w]; e.Valid && e.Addr != addr {
			return a.index(set, w)
		}
	}
	return -1
}

// InvalidateIndex marks the entry at stable index idx invalid and returns
// a copy of it. Used when a data-array eviction forces out a tag (§5.4.1
// step 8).
func (a *Array[P]) InvalidateIndex(idx int) Entry[P] {
	if idx < 0 || idx >= len(a.entries) {
		panic(fmt.Sprintf("cache: InvalidateIndex out of range %d", idx))
	}
	old := a.entries[idx]
	a.entries[idx].Valid = false
	if old.Valid {
		a.stats.Evictions++
		a.valid--
	}
	return old
}

// EntryAt returns the entry at stable index idx.
func (a *Array[P]) EntryAt(idx int) *Entry[P] {
	return &a.entries[idx]
}

// ForEach calls fn for every valid entry with its stable index.
func (a *Array[P]) ForEach(fn func(idx int, e *Entry[P])) {
	for i := range a.entries {
		if a.entries[i].Valid {
			fn(i, &a.entries[i])
		}
	}
}

// CountValid returns the number of valid (resident) entries. Insert and
// InvalidateIndex, the only writers of Valid, keep the count, so every
// design's per-sample Footprint reads it without scanning the array.
func (a *Array[P]) CountValid() int { return a.valid }
