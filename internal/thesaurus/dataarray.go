package thesaurus

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/diffenc"
	"repro/internal/line"
)

// SlotState is the startmap marking for one data-array entry slot
// (Fig. 10: D = valid-diff, R = valid-raw, I = invalid tombstone).
type SlotState uint8

// Slot states. Tombstones hold their ordinal position in the startmap so
// segix fields in the tag array stay valid across compaction (§5.2.2).
const (
	SlotFree SlotState = iota
	SlotValidRaw
	SlotValidDiff
	SlotInvalid
)

// slot is one startmap position: an entry start marker plus, in this
// behavioural model, the encoded payload itself (physical byte offsets are
// implied by the sum of preceding valid sizes and need not be tracked).
type slot struct {
	state  SlotState
	segs   int // data-array segments occupied (0 for tombstones)
	tagIdx int // back-pointer into the tag array (the tagptr of Fig. 9)
	enc    diffenc.Encoded
}

// dataSet is one set of the decoupled data array: SegmentsPerSet 8-byte
// segments shared by a variable number of compressed entries, plus the
// startmap (the slots).
type dataSet struct {
	slots    []slot
	usedSegs int
	// tombs has one bit per startmap position that currently holds a
	// tombstone. Insert picks its reuse slot from this mask instead of
	// scanning the slots (each slot spans two cache lines, so a linear
	// probe of a full startmap touches ~2KB of mostly cold memory per
	// insertion). segsPerSet ≤ 64 bounds the startmap within the mask.
	tombs uint64
}

// DataArray is the decoupled, segment-granular LLC data array of §5.2.2.
type DataArray struct {
	sets       []dataSet
	segsPerSet int

	// planScratch/candScratch back VictimPlan so the steady-state
	// allocation path stays allocation-free. A VictimPlan result is valid
	// only until the next VictimPlan call (see docs/performance.md).
	planScratch []int
	candScratch []victimCand
}

// victimCand is one eviction candidate considered by VictimPlan.
type victimCand struct{ idx, segs int }

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
		d.reset()
		return d
	}
	d := &DataArray{sets: make([]dataSet, numSets), segsPerSet: segsPerSet}
	// Pre-size every startmap from one flat slab. Each live entry spans ≥2
	// segments (a diff is mask + ≥1 delta byte; raws are 8), so a set never
	// holds more than segsPerSet/2 slots; carving full-capacity views up
	// front means Insert's append never grows a slice. Every slot also gets
	// a full-width delta buffer (a diff mask covers line.Size byte
	// positions, so no encoding carries more deltas than that): with
	// capacity pre-staged, CopyFrom never grows either, keeping the
	// steady-state access path allocation-free (docs/performance.md).
	maxSlots := segsPerSet / 2
	if maxSlots < 1 {
		maxSlots = 1
	}
	slab := make([]slot, numSets*maxSlots)
	deltas := make([]byte, len(slab)*line.Size)
	for i := range slab {
		slab[i].enc.Deltas = deltas[i*line.Size : i*line.Size : (i+1)*line.Size]
	}
	for i := range d.sets {
		d.sets[i].slots = slab[i*maxSlots : i*maxSlots : (i+1)*maxSlots]
	}
	return d
}

// reset empties every set in O(sets). The slots beyond each startmap's
// length keep their stale contents and their delta buffers: Insert
// reslices into them and overwrites state, size, tag pointer and the
// encoding (CopyFrom writes every field its format reads), exactly as it
// fills a fresh slab's zero slots.
func (d *DataArray) reset() {
	for i := range d.sets {
		set := &d.sets[i]
		set.slots = set.slots[:0]
		set.usedSegs = 0
		set.tombs = 0
	}
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
		used += d.sets[i].usedSegs
	}
	return used * diffenc.SegmentBytes
}

// FreeSegs returns the free segments in set s.
func (d *DataArray) FreeSegs(s int) int {
	return d.segsPerSet - d.sets[s].usedSegs
}

// Insert places enc (which must occupy at least one segment) into set s on
// behalf of tag tagIdx and returns the slot index for the tag's segix
// field. The set must have enough free segments; callers evict first.
//
// enc is deep-copied into the slot (the slot owns its delta buffer and
// reuses the buffer left behind by the entry previously occupying it), so
// callers may pass a per-cache scratch encoding and reuse it immediately.
func (d *DataArray) Insert(s int, enc *diffenc.Encoded, tagIdx int) int {
	segs := enc.Segments()
	if segs <= 0 {
		panic("thesaurus: Insert of entry with no data footprint")
	}
	set := &d.sets[s]
	if set.usedSegs+segs > d.segsPerSet {
		panic(fmt.Sprintf("thesaurus: Insert overflows set %d (%d used + %d new > %d)",
			s, set.usedSegs, segs, d.segsPerSet))
	}
	state := SlotValidDiff
	if enc.Format == diffenc.FormatRaw {
		state = SlotValidRaw
	}
	// Reuse a tombstone if present (Fig. 11d step 6) — the lowest-index
	// one, matching the original linear scan — else append a new startmap
	// position. Because every live entry spans ≥2 segments, at most
	// segsPerSet/2 slots are live, so a position is always available.
	idx := -1
	if set.tombs != 0 {
		idx = bits.TrailingZeros64(set.tombs)
		set.tombs &^= 1 << uint(idx)
	}
	if idx < 0 {
		if len(set.slots) >= d.segsPerSet {
			panic("thesaurus: startmap exhausted (invariant violated)")
		}
		if len(set.slots) < cap(set.slots) {
			// Reslice rather than append: the slab slot beyond len already
			// holds its pre-allocated delta buffer, which append(slot{})
			// would clobber.
			set.slots = set.slots[:len(set.slots)+1]
		} else {
			set.slots = append(set.slots, slot{})
		}
		idx = len(set.slots) - 1
	}
	sl := &set.slots[idx]
	sl.state = state
	sl.segs = segs
	sl.tagIdx = tagIdx
	sl.enc.CopyFrom(enc)
	set.usedSegs += segs
	return idx
}

// Get returns the encoded entry at (set, slot). It panics on tombstones or
// free slots; tags never point at those.
func (d *DataArray) Get(s, slotIdx int) *diffenc.Encoded {
	sl := d.slotAt(s, slotIdx)
	if sl.state != SlotValidRaw && sl.state != SlotValidDiff {
		panic(fmt.Sprintf("thesaurus: Get of non-valid slot (%d,%d)", s, slotIdx))
	}
	return &sl.enc
}

// TagOf returns the tag back-pointer of the entry at (set, slot).
func (d *DataArray) TagOf(s, slotIdx int) int {
	return d.slotAt(s, slotIdx).tagIdx
}

// Remove tombstones the entry at (set, slot), releasing its segments; the
// remaining entries are (conceptually) compacted without renumbering
// (Fig. 11c). The slot's delta buffer stays with the tombstone so the
// next Insert into it runs allocation-free.
func (d *DataArray) Remove(s, slotIdx int) {
	sl := d.slotAt(s, slotIdx)
	if sl.state != SlotValidRaw && sl.state != SlotValidDiff {
		panic(fmt.Sprintf("thesaurus: Remove of non-valid slot (%d,%d)", s, slotIdx))
	}
	d.sets[s].usedSegs -= sl.segs
	// Field-wise reset rather than zeroing the whole slot: the embedded
	// encoding (including its 64-byte Raw) is dead payload that the next
	// Insert's CopyFrom overwrites in full, so clearing it here would
	// memclr ~100 bytes per eviction for nothing. CheckInvariants only
	// requires tombstones to carry segs == 0.
	sl.state = SlotInvalid
	sl.segs = 0
	sl.tagIdx = -1
	d.sets[s].tombs |= 1 << uint(slotIdx)
}

// encAt returns the encoded entry at (set, slot) without the validity
// checks of Get. It is the read/rewrite hot-path accessor: callers hold a
// tag whose back-pointer CheckInvariants keeps honest, so the defensive
// panics in Get would re-verify an invariant per access.
func (d *DataArray) encAt(s, slotIdx int) *diffenc.Encoded {
	return &d.sets[s].slots[slotIdx].enc
}

func (d *DataArray) slotAt(s, slotIdx int) *slot {
	if s < 0 || s >= len(d.sets) {
		panic(fmt.Sprintf("thesaurus: set index %d out of range", s))
	}
	set := &d.sets[s]
	if slotIdx < 0 || slotIdx >= len(set.slots) {
		panic(fmt.Sprintf("thesaurus: slot index %d out of range in set %d", slotIdx, s))
	}
	return &set.slots[slotIdx]
}

// VictimPlan lists the entries (slot indices, largest first) that must be
// evicted from set s to free need segments. The bool result is false if
// even evicting everything would not suffice (need > segsPerSet). The
// returned slice aliases per-array scratch storage and is valid only
// until the next VictimPlan call on the same DataArray.
func (d *DataArray) VictimPlan(s, need int) ([]int, bool) {
	free := d.FreeSegs(s)
	if free >= need {
		return nil, true
	}
	if need > d.segsPerSet {
		return nil, false
	}
	set := &d.sets[s]
	// Largest-first minimizes the number of entries (and thus tags)
	// evicted, the objective of the §5.4.3 data replacement policy.
	cands := d.candScratch[:0]
	for i := range set.slots {
		if st := set.slots[i].state; st == SlotValidRaw || st == SlotValidDiff {
			cands = append(cands, victimCand{i, set.slots[i].segs})
		}
	}
	d.candScratch = cands[:0]
	// Insertion sort by segs descending (sets are tiny).
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].segs > cands[j-1].segs; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	plan := d.planScratch[:0]
	for _, c := range cands {
		if free >= need {
			break
		}
		plan = append(plan, c.idx)
		free += c.segs
	}
	d.planScratch = plan[:0]
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
		for i := range set.slots {
			sl := &set.slots[i]
			if sl.state == SlotValidRaw || sl.state == SlotValidDiff {
				fn(s, i, &sl.enc, sl.tagIdx)
			}
		}
	}
}

// CheckInvariants validates the startmap bookkeeping: per-set used
// segments equal the sum of valid slot sizes and never exceed capacity.
// It is exercised by tests and returns the first violation found.
func (d *DataArray) CheckInvariants() error {
	for s := range d.sets {
		set := &d.sets[s]
		sum := 0
		var tombs uint64
		for i := range set.slots {
			sl := &set.slots[i]
			switch sl.state {
			case SlotValidRaw, SlotValidDiff:
				if sl.segs <= 0 {
					return fmt.Errorf("set %d slot %d: valid with %d segs", s, i, sl.segs)
				}
				sum += sl.segs
			case SlotInvalid:
				if sl.segs != 0 {
					return fmt.Errorf("set %d slot %d: tombstone with %d segs", s, i, sl.segs)
				}
				tombs |= 1 << uint(i)
			case SlotFree:
				return fmt.Errorf("set %d slot %d: free slot inside startmap", s, i)
			}
		}
		if tombs != set.tombs {
			return fmt.Errorf("set %d: tombstone mask %#x but slots show %#x", s, set.tombs, tombs)
		}
		if sum != set.usedSegs {
			return fmt.Errorf("set %d: usedSegs=%d but slots sum to %d", s, set.usedSegs, sum)
		}
		if sum > d.segsPerSet {
			return fmt.Errorf("set %d: %d segments exceed capacity %d", s, sum, d.segsPerSet)
		}
	}
	return nil
}
