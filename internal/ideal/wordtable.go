package ideal

// wordTable is the package's exact-word candidate index: an
// open-addressed hash table (linear probing) from an aligned 8-byte word
// to the list of values (ids, or stamped tag references for the online
// cache) registered under it. Keys are never deleted, and a lookup that
// misses creates nothing.
//
// The lists live in one pointer-free arena rather than a slice per key:
// nearly every word of real data occurs in a single line, so most lists
// hold one value, and per-key heap slices would put tens of thousands
// of small objects per cache (and a pointer per slot) in front of the
// garbage collector.
// A list that outgrows its region moves to a doubled region at the end
// of the arena; the old region is abandoned, which at most doubles the
// arena.
//
// Callers that insert several words resolve their slots first: reserve
// guarantees the inserts that follow cannot grow the table, so a slot
// returned by locate stays meaningful until add consumes it.
type wordTable struct {
	slots []wordSlot
	refs  []uint64 // list storage
	used  int      // occupied slots
	shift uint     // 64 - log2(len(slots))
}

// wordSlot is one table slot: a key and its list, refs[off:off+n], with
// room for size values. size 0 marks an empty slot; a key is created
// with its first value and keeps its region even when its list empties.
type wordSlot struct {
	key  uint64
	off  uint32
	n    uint16
	size uint16
}

// wordTableMinBits sets the initial table size, 1<<wordTableMinBits
// slots. The online cache is built once per design cell, so the table
// starts small and doubles as words arrive rather than paying a large
// zeroed allocation up front.
const wordTableMinBits = 10

// reset empties the table for a recycled cache, keeping its grown slot
// count and arena capacity. Lookups never depend on the slot count, so a
// reset table answers every query as a fresh one does.
func (t *wordTable) reset() {
	clear(t.slots)
	t.refs = t.refs[:0]
	t.used = 0
}

// home returns the first slot of w's probe sequence: the top bits of a
// multiply after folding the high half down, so words that differ only
// in their high bits (floating-point exponents, pointer tags) still
// spread across the table.
func (t *wordTable) home(w uint64) int {
	return int(((w ^ w>>33) * 0xff51afd7ed558ccd) >> t.shift)
}

// locate returns the slot holding w, or the empty slot that ends w's
// probe sequence when w is absent.
func (t *wordTable) locate(w uint64) int {
	mask := len(t.slots) - 1
	for s := t.home(w); ; s = (s + 1) & mask {
		if sl := &t.slots[s]; sl.size == 0 || sl.key == w {
			return s
		}
	}
}

// at returns the list held in slot s (empty for an empty slot). Callers
// may shorten it in place and record the new length with setLen.
func (t *wordTable) at(s int) []uint64 {
	sl := &t.slots[s]
	return t.refs[sl.off : sl.off+uint32(sl.n) : sl.off+uint32(sl.n)]
}

// setLen truncates slot s's list to its first n values.
func (t *wordTable) setLen(s, n int) { t.slots[s].n = uint16(n) }

// list returns the values registered under w (empty when w is absent).
func (t *wordTable) list(w uint64) []uint64 {
	if t.slots == nil {
		return nil
	}
	return t.at(t.locate(w))
}

// reserve sizes the table so that n more keys insert without growing it,
// keeping the load factor at most 3/4.
func (t *wordTable) reserve(n int) {
	if t.slots == nil {
		t.slots = make([]wordSlot, 1<<wordTableMinBits)
		t.shift = 64 - wordTableMinBits
	}
	for 4*(t.used+n) > 3*len(t.slots) {
		old := t.slots
		t.slots = make([]wordSlot, 2*len(old))
		t.shift--
		for _, sl := range old {
			if sl.size != 0 {
				t.slots[t.locate(sl.key)] = sl
			}
		}
	}
}

// add appends v to w's list unless the list already holds maxCandidates
// values, creating the key when w is absent. s is w's slot from locate,
// taken after the reserve that covers this insert. Inserts since then
// may have filled that slot with another key, in which case w (absent
// when located) goes in the next empty slot along its probe sequence.
func (t *wordTable) add(s int, w, v uint64) {
	mask := len(t.slots) - 1
	for t.slots[s].size != 0 && t.slots[s].key != w {
		s = (s + 1) & mask
	}
	sl := &t.slots[s]
	if sl.size == 0 {
		sl.key = w
		sl.off = t.alloc(1)
		sl.size = 1
		t.used++
	}
	if sl.n >= maxCandidates { // duplicate-heavy words need no more
		return
	}
	if sl.n == sl.size {
		size := min(2*int(sl.size), maxCandidates)
		off := t.alloc(size)
		copy(t.refs[off:], t.refs[sl.off:sl.off+uint32(sl.n)])
		sl.off, sl.size = off, uint16(size)
	}
	t.refs[sl.off+uint32(sl.n)] = v
	sl.n++
}

// alloc reserves n values at the end of the arena and returns their
// offset.
func (t *wordTable) alloc(n int) uint32 {
	off := len(t.refs)
	t.refs = append(t.refs, make([]uint64, n)...)
	return uint32(off)
}
