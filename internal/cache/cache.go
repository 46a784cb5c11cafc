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
	return nil
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
	policy  []plru.Policy
	stats   Stats
}

// New builds an Array from cfg, panicking on invalid configuration (all
// configurations in this repository are static).
func New[P any](cfg Config) *Array[P] {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	a := &Array[P]{
		cfg:     cfg,
		sets:    cfg.Sets(),
		entries: make([]Entry[P], cfg.Entries),
		policy:  make([]plru.Policy, cfg.Sets()),
	}
	for i := range a.policy {
		a.policy[i] = plru.NewPolicy(cfg.Policy, cfg.Ways)
	}
	return a
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
	a.policy[set].Touch(way)
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
		victim = a.policy[set].Victim()
		evicted = a.entries[base+victim]
		hadEviction = true
		a.stats.Evictions++
	}
	idx = a.index(set, victim)
	var zero P
	a.entries[idx] = Entry[P]{Addr: addr, Valid: true, Payload: zero}
	a.policy[set].Touch(victim)
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
	return a.entries[base+a.policy[set].Victim()]
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
	return a.index(set, a.policy[set].Victim())
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
	w := a.policy[set].Victim()
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

// CountValid returns the number of valid (resident) entries.
func (a *Array[P]) CountValid() int {
	n := 0
	for i := range a.entries {
		if a.entries[i].Valid {
			n++
		}
	}
	return n
}
