package thesaurus

import (
	"repro/internal/cache"
	"repro/internal/line"
	"repro/internal/lsh"
	"repro/internal/memory"
	"repro/internal/plru"
	"repro/internal/stats"
)

// BaseEntry is one base-table record (§5.2.3, Fig. 9 bottom-right): the
// clusteroid line for an LSH fingerprint plus a counter of how many
// resident cache entries currently reference it. Validity is an epoch
// stamp rather than a bool: an entry is valid iff its stamp equals the
// owning table's current epoch, so a recycled table invalidates its
// whole slab with one counter increment instead of re-zeroing it (see
// BaseTable.Reset). Sites that stamp an entry valid must also write
// Base and Cntr — a stale entry's payload is garbage from a previous
// table life.
type BaseEntry struct {
	epoch uint32
	Base  line.Line
	Cntr  uint32
}

// BaseTable is the global, OS-allocated in-memory array of clusteroids,
// one entry per possible LSH fingerprint. Accesses that miss the base
// cache are charged as DRAM traffic on the backing store.
type BaseTable struct {
	entries []BaseEntry
	// epoch is the current validity stamp; entry.epoch == epoch means
	// valid. Zero is reserved for never-written entries (the zero value
	// of a fresh slab), so a live table's epoch is always ≥ 1.
	epoch uint32
	mem   *memory.Store
}

// tablePool parks released tables for the next NewBaseTable of the same
// entry count (docs/performance.md, "The release lifecycle"). Ablation
// sweeps construct one table per configuration, and at 2^20+ entries the
// make-and-zero of a fresh slab is a measurable slice of campaign time;
// reusing a parked slab makes NewBaseTable O(1) (one epoch bump, no
// zeroing).
var tablePool = cache.NewPool[int, *BaseTable]()

// NewBaseTable returns a table with 2^bits entries over mem, reusing a
// parked slab of the same size when one is available. A recycled table
// is observationally identical to a fresh one: Reset invalidates every
// entry before it is handed out.
func NewBaseTable(bits int, mem *memory.Store) *BaseTable {
	if t, ok := tablePool.Get(1 << uint(bits)); ok {
		t.mem = mem
		t.Reset()
		return t
	}
	return &BaseTable{entries: make([]BaseEntry, 1<<uint(bits)), epoch: 1, mem: mem}
}

// Reset invalidates every entry in O(1) by advancing the validity epoch.
// Stamps only ever hold past epoch values, so no entry can compare equal
// to the new epoch — except after the uint32 wraps, when stamps from
// 2^32-1 resets ago could alias; that one reset in four billion pays a
// full slab zeroing and restarts at epoch 1.
func (t *BaseTable) Reset() {
	t.epoch++
	if t.epoch == 0 {
		clear(t.entries)
		t.epoch = 1
	}
}

// Release detaches the table from its backing store and parks it for the
// next NewBaseTable of the same size. The caller must not touch the table
// afterwards.
func (t *BaseTable) Release() {
	t.mem = nil
	tablePool.Put(len(t.entries), t)
}

// valid reports whether e carries t's current validity epoch.
func (t *BaseTable) valid(e *BaseEntry) bool { return e.epoch == t.epoch }

// markValid stamps e valid for t's current epoch. The caller must also
// set Base and Cntr: a previously stale entry holds garbage.
func (t *BaseTable) markValid(e *BaseEntry) { e.epoch = t.epoch }

// Len returns the number of table entries.
func (t *BaseTable) Len() int { return len(t.entries) }

// entry returns the record for fp without accounting.
func (t *BaseTable) entry(fp lsh.Fingerprint) *BaseEntry {
	return &t.entries[int(fp)%len(t.entries)]
}

// chargeDRAM records one base-table DRAM access (a base-cache miss or a
// dirty base-cache victim writeback).
func (t *BaseTable) chargeDRAM() {
	// The table lives in ordinary memory; we reuse the store's counter
	// channel so the power model sees this traffic (addr is symbolic).
	t.mem.Read(0, memory.BaseTable)
}

// ActiveClusters returns the number of table entries with live references
// and the number of valid entries overall.
func (t *BaseTable) ActiveClusters() (live, valid int) {
	for i := range t.entries {
		e := &t.entries[i]
		if t.valid(e) {
			valid++
			if e.Cntr > 0 {
				live++
			}
		}
	}
	return live, valid
}

// ClusterSizes buckets the valid entries' reference counts into the
// paper's Figure 16 bins: <10, <50, <500, and 500+. Fractions are of the
// whole table.
func (t *BaseTable) ClusterSizes() (frac [4]float64) {
	var counts [4]int
	for i := range t.entries {
		e := &t.entries[i]
		if !t.valid(e) || e.Cntr == 0 {
			continue
		}
		switch {
		case e.Cntr < 10:
			counts[0]++
		case e.Cntr < 50:
			counts[1]++
		case e.Cntr < 500:
			counts[2]++
		default:
			counts[3]++
		}
	}
	for i, c := range counts {
		frac[i] = float64(c) / float64(len(t.entries))
	}
	return frac
}

// baseCacheEntry is one way of the base cache: a cached clusteroid tagged
// by its fingerprint. The table remains authoritative (the cache is
// write-through), so entries carry no dirty state.
type baseCacheEntry struct {
	valid bool
	fp    lsh.Fingerprint
}

// BaseCache is the TLB-like LLC-side cache of recently used base-table
// entries: 64 sets × 8 ways, pseudo-LRU (§5.2.3). Only presence is
// modelled (the table is read directly on hit); the cache exists to decide
// which accesses pay DRAM latency/energy and which insertions must fall
// back to raw storage (§5.4.1, §6.4).
type BaseCache struct {
	sets    int
	ways    int
	entries []baseCacheEntry
	tree    []uint64 // pseudo-LRU tree bits, one word per set

	// ReadPath counts critical-path lookups (servicing reads of
	// base-only/base+diff lines); InsertPath counts off-critical-path
	// lookups during insertion (§6.4 distinguishes the two).
	ReadPath   stats.Counter
	InsertPath stats.Counter
	// LowPriorityInsert installs insertion-path fills at victim priority
	// (scan resistance; see Access). Enabled by default via the cache
	// configuration.
	LowPriorityInsert bool
}

// NewBaseCache builds a base cache with the given geometry.
func NewBaseCache(sets, ways int) *BaseCache {
	if err := plru.Check("plru", ways); err != nil {
		panic(err)
	}
	return &BaseCache{
		sets:    sets,
		ways:    ways,
		entries: make([]baseCacheEntry, sets*ways),
		tree:    make([]uint64, sets),
	}
}

// Entries returns the total entry count (the Fig. 20 sweep variable).
func (bc *BaseCache) Entries() int { return bc.sets * bc.ways }

// StorageBytes returns the silicon cost of the base cache: each entry
// holds a 64-byte base plus tag and replacement metadata (Table 2 rounds
// this to 24+512 bits per entry).
func (bc *BaseCache) StorageBytes() int {
	const entryBits = 24 + 512
	return bc.Entries() * entryBits / 8
}

func (bc *BaseCache) setOf(fp lsh.Fingerprint) int {
	// Sign-quantized fingerprints of structured data have heavily
	// correlated bits (whole workloads can agree on several row signs),
	// so direct low-bit indexing piles the live fingerprints into a few
	// sets. A multiplicative hash — one XOR/multiply in hardware —
	// spreads them.
	h := uint32(fp) * 2654435761
	return int(h>>16) % bc.sets
}

// lookup probes for fp, updating recency on hit.
func (bc *BaseCache) lookup(fp lsh.Fingerprint) bool {
	set := bc.setOf(fp)
	base := set * bc.ways
	for w := 0; w < bc.ways; w++ {
		e := &bc.entries[base+w]
		if e.valid && e.fp == fp {
			plru.TreeTouch(&bc.tree[set], bc.ways, w)
			return true
		}
	}
	return false
}

// fill installs fp, evicting the pseudo-LRU victim of its set. When
// promote is false the new entry is left at victim priority — it becomes
// the next line to evict unless a subsequent access touches it.
func (bc *BaseCache) fill(fp lsh.Fingerprint, promote bool) {
	set := bc.setOf(fp)
	base := set * bc.ways
	victim := -1
	for w := 0; w < bc.ways; w++ {
		if !bc.entries[base+w].valid {
			victim = w
			break
		}
	}
	if victim < 0 {
		victim = plru.TreeVictim(bc.tree[set], bc.ways)
	}
	bc.entries[base+victim] = baseCacheEntry{valid: true, fp: fp}
	if promote {
		plru.TreeTouch(&bc.tree[set], bc.ways, victim)
	}
}

// Access models one base-cache access on the given path. On a miss the
// entry is fetched from the base table (one DRAM access) and installed.
// It reports whether the access hit.
//
// Read-path fills are promoted to MRU as in a conventional pseudo-LRU
// cache. Insertion-path fills are installed at *victim priority* — a
// standard TLB/scan-resistance refinement on top of the paper's plain
// pseudo-LRU management: high-entropy lines (hashed keys, compressed
// buffers) each touch a fresh fingerprint exactly once, and promoting
// those one-shot fills would thrash the clusteroids that the read path
// and the compressible insertions keep reusing. A fingerprint that is
// reused is promoted on its next (hitting) access. The effect of this
// choice is measured by the AblateBaseCachePriority experiment.
func (bc *BaseCache) Access(fp lsh.Fingerprint, t *BaseTable, readPath bool) bool {
	hit := bc.lookup(fp)
	if readPath {
		bc.ReadPath.Observe(hit)
	} else {
		bc.InsertPath.Observe(hit)
	}
	if !hit {
		t.chargeDRAM()
		bc.fill(fp, readPath || !bc.LowPriorityInsert)
	}
	return hit
}

// HitRate returns the combined hit rate across both paths (Fig. 20).
func (bc *BaseCache) HitRate() float64 {
	total := bc.ReadPath.Total + bc.InsertPath.Total
	if total == 0 {
		return 0
	}
	return float64(bc.ReadPath.Hits+bc.InsertPath.Hits) / float64(total)
}
