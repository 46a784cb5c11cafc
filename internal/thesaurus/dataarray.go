package thesaurus

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/diffenc"
)

// slot is one data-array entry record: the encoding, payload inline, and
// the back-pointer into the tag array (the tagptr of Fig. 9). Physical
// byte offsets are implied by the sum of preceding valid sizes and need
// not be tracked in this behavioural model.
type slot struct {
	enc diffenc.Encoded
	tag int32
}

// dataSet is one set's startmap bookkeeping (Fig. 10): the segment count
// of the entry at each startmap position, 0 marking a tombstone. Tombstones
// hold their ordinal position so segix fields in the tag array stay valid
// across compaction (§5.2.2). Placement, eviction planning and free-space
// queries read only this row; the entry records live in DataArray.slots.
type dataSet struct {
	// tombs has one bit per startmap position that holds a tombstone, so
	// Insert finds its reuse position without scanning the row.
	tombs uint64
	used  uint8 // segments in use
	n     uint8 // startmap positions in use, tombstones included
	segs  [64]uint8
}

// DataArray is the decoupled, segment-granular LLC data array of §5.2.2.
type DataArray struct {
	sets       []dataSet
	segsPerSet int
	// slots holds perSet entry records per set, set s at
	// [s*perSet, (s+1)*perSet).
	slots  []slot
	perSet int

	// plan backs VictimPlan so the steady-state allocation path stays
	// allocation-free. A VictimPlan result is valid only until the next
	// VictimPlan call (see docs/performance.md).
	plan []int
}

// dataGeom keys dataPool by a data array's geometry.
type dataGeom struct{ sets, segsPerSet int }

// dataPool parks released data arrays for the next cache of the same
// geometry (docs/performance.md, "The release lifecycle").
var dataPool = cache.NewPool[dataGeom, *DataArray]()

// NewDataArray builds an array of numSets sets with segsPerSet segments
// each, reusing a released array of that geometry when one is parked.
func NewDataArray(numSets, segsPerSet int) *DataArray {
	if numSets <= 0 || segsPerSet <= 0 || segsPerSet > 64 {
		panic("thesaurus: invalid data array geometry")
	}
	if d, ok := dataPool.Get(dataGeom{numSets, segsPerSet}); ok {
		clear(d.sets)
		return d
	}
	// A diff is mask + ≥1 delta byte and a raw line is 8 segments, so
	// clustered entries span ≥2 segments and a set holds at most
	// segsPerSet/2 of them; only IntraLineFallback's one-segment BΔI
	// entries need more positions, and widen provides them on first use.
	// The records beyond a startmap hold stale contents: Insert overwrites
	// a record in full.
	perSet := max(segsPerSet/2, 1)
	return &DataArray{
		sets:       make([]dataSet, numSets),
		segsPerSet: segsPerSet,
		slots:      make([]slot, numSets*perSet),
		perSet:     perSet,
	}
}

// widen regrows the record slab to one record per segment, the most
// positions a startmap can use.
//
//thesaurus:allocok one-time regrowth: only IntraLineFallback's one-segment entries open more than segsPerSet/2 positions, and the widened slab stays with the array for life
func (d *DataArray) widen() {
	wide := make([]slot, len(d.sets)*d.segsPerSet)
	for s := range d.sets {
		copy(wide[s*d.segsPerSet:], d.slots[s*d.perSet:(s+1)*d.perSet])
	}
	d.slots, d.perSet = wide, d.segsPerSet
}

// Release parks the array for the next NewDataArray of the same
// geometry. The caller must not touch the array afterwards.
func (d *DataArray) Release() {
	dataPool.Put(dataGeom{len(d.sets), d.segsPerSet}, d)
}

// NumSets returns the set count.
func (d *DataArray) NumSets() int { return len(d.sets) }

// SegmentsPerSet returns the per-set segment count.
func (d *DataArray) SegmentsPerSet() int { return d.segsPerSet }

// CapacityBytes returns the total data capacity.
func (d *DataArray) CapacityBytes() int {
	return len(d.sets) * d.segsPerSet * diffenc.SegmentBytes
}

// UsedBytes returns the occupied data space.
func (d *DataArray) UsedBytes() int {
	used := 0
	for i := range d.sets {
		used += int(d.sets[i].used)
	}
	return used * diffenc.SegmentBytes
}

// FreeSegs returns the free segments in set s.
func (d *DataArray) FreeSegs(s int) int {
	return d.segsPerSet - int(d.sets[s].used)
}

// Insert copies enc (which must occupy at least one segment) into set s on
// behalf of tag tagIdx and returns the startmap position for the tag's
// segix field. The set must have enough free segments; callers evict
// first.
func (d *DataArray) Insert(s int, enc *diffenc.Encoded, tagIdx int) int {
	segs := enc.Segments()
	if segs <= 0 {
		panic("thesaurus: Insert of entry with no data footprint")
	}
	set := &d.sets[s]
	if int(set.used)+segs > d.segsPerSet {
		panic(fmt.Sprintf("thesaurus: Insert overflows set %d (%d used + %d new > %d)",
			s, set.used, segs, d.segsPerSet))
	}
	// Reuse the lowest tombstone if present (Fig. 11d step 6), else open a
	// new startmap position. Without tombstones every position holds a
	// live entry of ≥1 segment, so the capacity check above leaves a
	// position free.
	var pos int
	if set.tombs != 0 {
		pos = bits.TrailingZeros64(set.tombs)
		set.tombs &^= 1 << uint(pos)
	} else {
		pos = int(set.n)
		if pos == d.perSet {
			d.widen()
		}
		set.n++
	}
	set.segs[pos] = uint8(segs)
	set.used += uint8(segs)
	sl := &d.slots[s*d.perSet+pos]
	sl.enc = *enc
	sl.tag = int32(tagIdx)
	return pos
}

// Get returns the encoded entry at (set, position). It panics on
// tombstones and positions outside the startmap; tags never point at
// those.
func (d *DataArray) Get(s, pos int) *diffenc.Encoded {
	if !d.live(s, pos) {
		panic(fmt.Sprintf("thesaurus: Get of non-valid slot (%d,%d)", s, pos))
	}
	return d.encAt(s, pos)
}

// TagOf returns the tag back-pointer of the entry at (set, position), or
// -1 for a tombstone.
func (d *DataArray) TagOf(s, pos int) int {
	if !d.live(s, pos) {
		return -1
	}
	return int(d.slots[s*d.perSet+pos].tag)
}

// Remove tombstones the entry at (set, position), releasing its segments;
// the remaining entries are (conceptually) compacted without renumbering
// (Fig. 11c). Only the set's row changes: the record is dead payload that
// the next Insert at this position overwrites.
func (d *DataArray) Remove(s, pos int) {
	if !d.live(s, pos) {
		panic(fmt.Sprintf("thesaurus: Remove of non-valid slot (%d,%d)", s, pos))
	}
	set := &d.sets[s]
	set.used -= set.segs[pos]
	set.segs[pos] = 0
	set.tombs |= 1 << uint(pos)
}

// encAt returns the encoded entry at (set, position) without the validity
// checks of Get. It is the read/rewrite hot-path accessor: callers hold a
// tag whose back-pointer CheckInvariants keeps honest, so the defensive
// panics in Get would re-verify an invariant per access.
func (d *DataArray) encAt(s, pos int) *diffenc.Encoded {
	return &d.slots[s*d.perSet+pos].enc
}

// live reports whether (set, position) holds a live entry. It panics on
// a set index out of range.
func (d *DataArray) live(s, pos int) bool {
	if s < 0 || s >= len(d.sets) {
		panic(fmt.Sprintf("thesaurus: set index %d out of range", s))
	}
	set := &d.sets[s]
	if pos < 0 || pos >= int(set.n) {
		panic(fmt.Sprintf("thesaurus: slot index %d out of range in set %d", pos, s))
	}
	return set.segs[pos] != 0
}

// VictimPlan lists the entries (startmap positions, largest first, ties
// by lowest position) that must be evicted from set s to free need
// segments. The bool result is false if even evicting everything would
// not suffice (need > segsPerSet). The returned slice aliases per-array
// scratch storage and is valid only until the next VictimPlan call on the
// same DataArray.
func (d *DataArray) VictimPlan(s, need int) ([]int, bool) {
	free := d.FreeSegs(s)
	if free >= need {
		return nil, true
	}
	if need > d.segsPerSet {
		return nil, false
	}
	// Largest-first minimizes the number of entries (and thus tags)
	// evicted, the objective of the §5.4.3 data replacement policy. No
	// entry spans more than a raw line, so one pass per size, down from
	// SegmentsPerLine, visits the row in that order.
	row := d.sets[s].segs[:d.sets[s].n]
	plan := d.plan[:0]
	for size := diffenc.SegmentsPerLine; size > 0 && free < need; size-- {
		for pos, segs := range row {
			if int(segs) == size {
				plan = append(plan, pos)
				if free += size; free >= need {
					break
				}
			}
		}
	}
	d.plan = plan[:0]
	if free < need {
		return nil, false
	}
	return plan, true
}

// EvictionCost returns how many segments would need to be evicted from
// set s to fit need segments (0 if it already fits).
func (d *DataArray) EvictionCost(s, need int) int {
	free := d.FreeSegs(s)
	if free >= need {
		return 0
	}
	return need - free
}

// ForEachEntry calls fn for every valid entry.
func (d *DataArray) ForEachEntry(fn func(set, slotIdx int, enc *diffenc.Encoded, tagIdx int)) {
	for s := range d.sets {
		set := &d.sets[s]
		for pos, segs := range set.segs[:set.n] {
			if segs != 0 {
				sl := &d.slots[s*d.perSet+pos]
				fn(s, pos, &sl.enc, int(sl.tag))
			}
		}
	}
}

// CheckInvariants validates the startmap bookkeeping: each live entry's
// row count equals its encoding's size, per-set used segments equal the
// row's sum, the tombstone mask marks exactly the row's zeros, no
// position past the startmap holds anything, and nothing exceeds
// capacity. It is exercised by tests and returns the first violation
// found.
func (d *DataArray) CheckInvariants() error {
	for s := range d.sets {
		set := &d.sets[s]
		if int(set.n) > d.segsPerSet {
			return fmt.Errorf("set %d: %d startmap positions exceed %d segments", s, set.n, d.segsPerSet)
		}
		sum := 0
		var tombs uint64
		for pos, segs := range set.segs {
			switch {
			case pos >= int(set.n):
				if segs != 0 {
					return fmt.Errorf("set %d slot %d: %d segs past the startmap end %d", s, pos, segs, set.n)
				}
			case segs == 0:
				tombs |= 1 << uint(pos)
			default:
				if want := d.encAt(s, pos).Segments(); int(segs) != want {
					return fmt.Errorf("set %d slot %d: row says %d segs, encoding %d", s, pos, segs, want)
				}
				sum += int(segs)
			}
		}
		if tombs != set.tombs {
			return fmt.Errorf("set %d: tombstone mask %#x but row shows %#x", s, set.tombs, tombs)
		}
		if sum != int(set.used) {
			return fmt.Errorf("set %d: usedSegs=%d but row sums to %d", s, set.used, sum)
		}
		if sum > d.segsPerSet {
			return fmt.Errorf("set %d: %d segments exceed capacity %d", s, sum, d.segsPerSet)
		}
	}
	return nil
}
