// Package memory models the backing store (DRAM) behind the LLC: a sparse,
// cacheline-granular content store with access accounting for the energy
// model (Fig. 14 weighs LLC overheads against avoided DRAM accesses).
//
// The store also hosts auxiliary in-memory structures that the paper
// allocates in DRAM — most importantly the Thesaurus base table (§5.2.3)
// — via a separate accounting channel so their traffic can be reported
// independently.
package memory

import (
	"math/bits"
	"slices"
	"sync"

	"repro/internal/cache"
	"repro/internal/dram"
	"repro/internal/line"
)

// AccessKind distinguishes the DRAM traffic classes we account.
type AccessKind int

// DRAM traffic classes.
const (
	// Fill is a demand read caused by an LLC miss.
	Fill AccessKind = iota
	// Writeback is a dirty eviction from the LLC.
	Writeback
	// BaseTable is traffic to the in-memory base table (base-cache
	// misses and victim writebacks).
	BaseTable
	numKinds
)

// Stats counts DRAM accesses by kind.
type Stats struct {
	Counts [numKinds]uint64
}

// Total returns all DRAM accesses including base-table traffic.
func (s Stats) Total() uint64 {
	var t uint64
	for _, c := range s.Counts {
		t += c
	}
	return t
}

// Demand returns fills + writebacks (the traffic that exists in every
// design, compressed or not).
func (s Stats) Demand() uint64 {
	return s.Counts[Fill] + s.Counts[Writeback]
}

// pageLines is the store's internal page size in cachelines (4 KiB
// pages). Content is kept as a map of pages rather than a map of lines:
// program images (workload streams, sim.Record) and replay writebacks
// probe the map once per access, and one probe per page instead of per
// line keeps that off the profile.
const pageLines = 64

// page holds one aligned run of lines plus a presence bitmap (a line
// reads as zero until first written, as freshly mapped pages do).
type page struct {
	present uint64
	lines   [pageLines]line.Line
}

// pagePool recycles pages across stores. A store materializes one
// ~4KiB page per 64 lines it is written — a replay's writebacks, a
// workload's program image — and drops them all at Release; the pool
// turns that churn into reuse. A mutex-guarded stack (not a
// sync.Pool) keeps the behaviour deterministic and testable; the cap
// bounds idle memory at cap × 4KiB.
var pagePool struct {
	mu   sync.Mutex
	free []*page
}

// pagePoolCap bounds the freelist (8192 pages ≈ 32MiB, one large
// replay's working set).
const pagePoolCap = 8192

// getPage returns a zeroed page from the pool or the heap.
//
//thesaurus:allocok cold pool refill: a first-touch page allocates once, then recycles through the freelist
func getPage() *page {
	pagePool.mu.Lock()
	if n := len(pagePool.free); n > 0 {
		p := pagePool.free[n-1]
		pagePool.free = pagePool.free[:n-1]
		pagePool.mu.Unlock()
		return p
	}
	pagePool.mu.Unlock()
	return &page{}
}

// putPages recycles the pages held under the indices pis, in that
// order. Each page is zeroed before it is offered so a recycled page is
// indistinguishable from a fresh one. Only the present lines need
// clearing: set is the only writer of a page's lines and always marks
// the line present, so every other line is still zero. Replays populate
// a few lines per page, so this touches a fraction of the 4 KiB a
// whole-page clear would.
func putPages(pages map[uint64]*page, pis []uint64) {
	pagePool.mu.Lock()
	defer pagePool.mu.Unlock()
	for _, pi := range pis {
		if len(pagePool.free) >= pagePoolCap {
			return
		}
		p := pages[pi]
		for m := p.present; m != 0; m &= m - 1 {
			p.lines[bits.TrailingZeros64(m)] = line.Line{}
		}
		p.present = 0
		pagePool.free = append(pagePool.free, p)
	}
}

// pagePoolSize reports the freelist length (test hook).
func pagePoolSize() int {
	pagePool.mu.Lock()
	defer pagePool.mu.Unlock()
	return len(pagePool.free)
}

// drainPagePool empties the freelist (test hook).
func drainPagePool() {
	pagePool.mu.Lock()
	pagePool.free = nil
	pagePool.mu.Unlock()
}

// pageMap is a store's page index: the map from page index to page, and
// the indices it holds in the order they were first touched. A released
// store parks its emptied pageMap in mapPool for the next store, so a
// replay loop does not grow and drop a map (and sort buffers) per cell.
type pageMap struct {
	pages map[uint64]*page
	held  []uint64
	// fits is the most pages the map has held or was reserved for: a Go
	// map never shrinks, so it holds that many again without growing.
	fits int
}

// mapPool holds the emptied page maps of released stores, one per
// worker that can release at once (cache.Pool); cache.DrainPools
// empties it.
var mapPool = cache.NewPool[struct{}, pageMap]()

// Store is a sparse DRAM image at cacheline granularity. Unpopulated
// lines read as zero, as freshly mapped pages do.
type Store struct {
	pageMap
	populated int
	stats     Stats
	// latency prices demand accesses; nil means the simulator's flat
	// memory latency applies.
	latency *dram.Model
	// demandCycles accumulates modelled latency of demand traffic.
	demandCycles float64
	// The fill latch (Stage): while latched, latchAddr's line reads as
	// latch, ahead of the page image.
	latched   bool
	latchAddr line.Addr
	latch     line.Line
}

// locate splits addr into its page index and in-page line slot.
func locate(addr line.Addr) (uint64, uint) {
	la := uint64(addr) / line.Size
	return la / pageLines, uint(la % pageLines)
}

// get returns the content of addr's line: the latched value if addr is
// the staged line, else the page image (zero if never written).
func (s *Store) get(addr line.Addr) line.Line {
	addr = addr.LineAddr()
	if s.latched && addr == s.latchAddr {
		return s.latch
	}
	pi, si := locate(addr)
	if p := s.pages[pi]; p != nil {
		return p.lines[si]
	}
	return line.Line{}
}

// set stores data at addr's line, materializing its page on first touch.
// A store to the staged line also updates the latch, so a writeback that
// lands after Stage is what the next fill returns.
func (s *Store) set(addr line.Addr, data line.Line) {
	addr = addr.LineAddr()
	if s.latched && addr == s.latchAddr {
		s.latch = data
	}
	pi, si := locate(addr)
	p := s.pages[pi]
	if p == nil {
		p = s.newPage(pi)
	}
	if bit := uint64(1) << si; p.present&bit == 0 {
		p.present |= bit
		s.populated++
	}
	p.lines[si] = data
}

// newPage materializes page pi. A released store takes a page map from
// the pool again on its first write.
func (s *Store) newPage(pi uint64) *page {
	if s.pages == nil {
		s.adoptMap()
	}
	p := getPage()
	s.pages[pi] = p
	s.held = append(s.held, pi)
	return p
}

// adoptMap gives s an empty page map: a parked one when the pool has
// one, else a fresh one.
//
//thesaurus:allocok cold pool refill: NewStore, or the first write after a Release, takes a parked map; only an empty pool makes one
func (s *Store) adoptMap() {
	m, ok := mapPool.Get(struct{}{})
	if !ok {
		m.pages = make(map[uint64]*page)
	}
	s.pageMap = m
}

// AttachLatencyModel prices subsequent demand accesses (fills and
// writebacks) with the DRAM model m; the accumulated cycles are exposed
// via DemandCycles.
func (s *Store) AttachLatencyModel(m *dram.Model) { s.latency = m }

// DemandCycles returns the modelled total latency of demand accesses
// since the last ResetStats, and whether a latency model is attached.
func (s *Store) DemandCycles() (float64, bool) {
	return s.demandCycles, s.latency != nil
}

// NewStore returns an empty store. Its page map is one a released store
// parked, when there is one.
func NewStore() *Store {
	s := &Store{}
	s.adoptMap()
	return s
}

// Read returns the content of the line containing addr and counts one
// access of the given kind.
//
//thesaurus:hotpath
func (s *Store) Read(addr line.Addr, kind AccessKind) line.Line {
	s.stats.Counts[kind]++
	if s.latency != nil && kind != BaseTable {
		s.demandCycles += s.latency.Access(addr)
	}
	return s.get(addr)
}

// Write stores data at addr's line and counts one access of the given kind.
//
//thesaurus:hotpath
func (s *Store) Write(addr line.Addr, data line.Line, kind AccessKind) {
	s.stats.Counts[kind]++
	if s.latency != nil && kind != BaseTable {
		s.demandCycles += s.latency.Access(addr)
	}
	s.set(addr, data)
}

// Peek returns the line content without accounting (used by generators,
// verification, and snapshotting, which model no hardware traffic).
//
//thesaurus:hotpath
func (s *Store) Peek(addr line.Addr) line.Line {
	return s.get(addr)
}

// Poke sets the line content without accounting (pre-population of the
// image before the measured window, mirroring the paper's 100B-instruction
// warmup skip).
//
//thesaurus:hotpath
func (s *Store) Poke(addr line.Addr, data line.Line) {
	s.set(addr, data)
}

// Stage latches data as the content of addr's line until the next Stage,
// without accounting and without touching the page image: Read and Peek
// of that line return data, and a Write or Poke to it updates the latch
// as well as the page. sim.Replay stages each read event's fill value
// here, so a design's miss path reads the program's current content
// without the store materializing a page per working-set line; Populated
// and PagesEqual see only the page image.
//
//thesaurus:hotpath
func (s *Store) Stage(addr line.Addr, data line.Line) {
	s.latched = true
	s.latchAddr = addr.LineAddr()
	s.latch = data
}

// Populated returns the number of distinct lines ever written.
func (s *Store) Populated() int { return s.populated }

// Reserve pre-sizes the page map for a working set of about n lines, so
// a caller that Pokes a known working set pays the map's growth once.
// sim.Replay does not call it (it stages fills with Stage); the
// benchmark's per-operation LLC probe, which Pokes fills, does. Existing
// content is preserved, and a recycled map that has already held that
// many pages is kept as it is.
func (s *Store) Reserve(n int) {
	hint := n / pageLines
	if s.pages == nil {
		s.adoptMap()
	}
	if hint <= max(len(s.pages), s.fits) {
		return
	}
	pages := make(map[uint64]*page, hint)
	for pi, p := range s.pages {
		pages[pi] = p
	}
	s.pages = pages
	s.fits = hint
}

// Release drops the content pages and the fill latch, keeping the access
// statistics. Long experiment campaigns call this once a replay is
// finished and only the counters are still needed; subsequent reads
// observe zero lines. The pages return to the package pool and the
// emptied page map to mapPool, for the next store. Release allocates
// nothing, and its cost follows the pages held (a sort of their
// indices), not the size the map has grown to.
func (s *Store) Release() {
	if s.pages != nil {
		// Recycle in sorted page-index order so the pool's stack order
		// (and therefore which physical page a later store receives)
		// never depends on the order pages were first touched. Recycled
		// pages are zeroed, so this is pure hygiene — but determinism
		// hygiene is this repository's contract.
		slices.Sort(s.held)
		putPages(s.pages, s.held)
		// Empty the map in O(pages held). A clear walks every slot the
		// map has grown, so it pays only while the map holds at least an
		// eighth of the most it has held; below that, delete the held
		// keys. Deletes from a full group of a Go map leave tombstones
		// that would grow a recycled map over many lives, but at that
		// load a group is almost never full, and each clear drops them.
		s.fits = max(s.fits, len(s.pages))
		if len(s.held) >= s.fits/8 {
			clear(s.pages)
		} else {
			for _, pi := range s.held {
				delete(s.pages, pi)
			}
		}
		s.held = s.held[:0]
		mapPool.Put(struct{}{}, s.pageMap)
		s.pageMap = pageMap{}
	}
	s.populated = 0
	s.latched = false
	s.latch = line.Line{}
}

// PagesEqual reports whether two stores hold identical content images
// (same populated pages, presence bitmaps, and line data). Statistics
// are not compared.
func PagesEqual(a, b *Store) bool {
	if len(a.pages) != len(b.pages) {
		return false
	}
	for pi, pa := range a.pages {
		pb, ok := b.pages[pi]
		if !ok || pa.present != pb.present || pa.lines != pb.lines {
			return false
		}
	}
	return true
}

// Stats returns a copy of the access counters.
func (s *Store) Stats() Stats { return s.stats }

// ResetStats zeroes the access counters (e.g. after cache warmup).
func (s *Store) ResetStats() {
	s.stats = Stats{}
	s.demandCycles = 0
}
