package thesaurus

import (
	"bytes"
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/cache"
	"repro/internal/diffenc"
	"repro/internal/line"
	"repro/internal/xrand"
)

// refDataArray is the straightforward data array the record layout must
// match: one slot per startmap position holding its own state, size, tag
// pointer and encoding, a linear scan for the reusable tombstone, and a
// stable insertion sort for the victim plan.
type refDataArray struct {
	sets       []refSet
	segsPerSet int
}

type refSet struct {
	slots    []refSlot
	usedSegs int
}

type refSlotState uint8

const (
	refValid refSlotState = iota + 1
	refTombstone
)

type refSlot struct {
	state  refSlotState
	segs   int
	tagIdx int
	enc    diffenc.Encoded
}

func newRefDataArray(numSets, segsPerSet int) *refDataArray {
	return &refDataArray{sets: make([]refSet, numSets), segsPerSet: segsPerSet}
}

func (d *refDataArray) FreeSegs(s int) int { return d.segsPerSet - d.sets[s].usedSegs }

func (d *refDataArray) Insert(s int, enc *diffenc.Encoded, tagIdx int) int {
	set := &d.sets[s]
	segs := enc.Segments()
	if segs <= 0 || set.usedSegs+segs > d.segsPerSet {
		panic("ref: Insert does not fit")
	}
	idx := slices.IndexFunc(set.slots, func(sl refSlot) bool { return sl.state == refTombstone })
	if idx < 0 {
		set.slots = append(set.slots, refSlot{})
		idx = len(set.slots) - 1
	}
	set.slots[idx] = refSlot{state: refValid, segs: segs, tagIdx: tagIdx, enc: *enc}
	set.usedSegs += segs
	return idx
}

func (d *refDataArray) Get(s, i int) *diffenc.Encoded {
	if d.sets[s].slots[i].state != refValid {
		panic("ref: Get of non-valid slot")
	}
	return &d.sets[s].slots[i].enc
}

func (d *refDataArray) TagOf(s, i int) int {
	if d.sets[s].slots[i].state != refValid {
		return -1
	}
	return d.sets[s].slots[i].tagIdx
}

func (d *refDataArray) Remove(s, i int) {
	sl := &d.sets[s].slots[i]
	if sl.state != refValid {
		panic("ref: Remove of non-valid slot")
	}
	d.sets[s].usedSegs -= sl.segs
	*sl = refSlot{state: refTombstone}
}

func (d *refDataArray) VictimPlan(s, need int) ([]int, bool) {
	free := d.FreeSegs(s)
	if free >= need {
		return nil, true
	}
	if need > d.segsPerSet {
		return nil, false
	}
	type cand struct{ idx, segs int }
	var cands []cand
	for i, sl := range d.sets[s].slots {
		if sl.state == refValid {
			cands = append(cands, cand{i, sl.segs})
		}
	}
	for i := 1; i < len(cands); i++ {
		for j := i; j > 0 && cands[j].segs > cands[j-1].segs; j-- {
			cands[j], cands[j-1] = cands[j-1], cands[j]
		}
	}
	var plan []int
	for _, c := range cands {
		if free >= need {
			break
		}
		plan = append(plan, c.idx)
		free += c.segs
	}
	if free < need {
		return nil, false
	}
	return plan, true
}

func (d *refDataArray) EvictionCost(s, need int) int {
	return max(need-d.FreeSegs(s), 0)
}

func (d *refDataArray) CheckInvariants() error {
	for s, set := range d.sets {
		sum := 0
		for _, sl := range set.slots {
			if sl.state == refValid {
				sum += sl.segs
			}
		}
		if sum != set.usedSegs || sum > d.segsPerSet {
			return fmt.Errorf("ref set %d: used %d, slots sum to %d", s, set.usedSegs, sum)
		}
	}
	return nil
}

// refEntry builds one data-array entry of the given kind from x: a raw
// line, a base+diff or 0+diff encoding of 1–48 differing bytes, or a
// one-segment intra entry (the shape that lets IntraLineFallback use
// more startmap positions than clustered entries can). It returns the
// encoding and the line it decodes to against base.
func refEntry(kind, x byte, base *line.Line) (diffenc.Encoded, line.Line) {
	var enc diffenc.Encoded
	var l line.Line
	switch kind % 4 {
	case 0:
		for i := range l {
			l[i] = byte(i)*37 + x | 1
		}
		enc.SetRaw(&l)
	case 1:
		l = *base
		for i := 0; i < 1+int(x)%48; i++ {
			l[(i*7+int(x))%line.Size] ^= 0x5a
		}
		diffenc.EncodeInto(&enc, &l, base)
	case 2:
		for i := 0; i < 1+int(x)%48; i++ {
			l[(i*5+int(x))%line.Size] = x | 0x80
		}
		diffenc.EncodeInto(&enc, &l, nil)
	default:
		l = *base
		l[int(x)%line.Size] = x
		enc.SetIntra(&l, 1+int(x)%diffenc.SegmentBytes)
	}
	return enc, l
}

// checkDataArrayOps decodes ops into a stream of data-array operations,
// applies each to a DataArray and to the reference, and fails at the
// first return value, decoded line or invariant that differs.
func checkDataArrayOps(t *testing.T, ops []byte) {
	t.Helper()
	const sets, segsPerSet = 3, 16
	d := NewDataArray(sets, segsPerSet)
	defer d.Release()
	ref := newRefDataArray(sets, segsPerSet)
	var base line.Line
	for i := range base {
		base[i] = byte(i*13 + 1)
	}
	type key struct{ set, pos int }
	want := map[key]line.Line{}
	next := func() int {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return int(b)
	}
	// livePos picks the k-th live position of set s, or -1.
	livePos := func(s, k int) int {
		var live []int
		for i, sl := range ref.sets[s].slots {
			if sl.state == refValid {
				live = append(live, i)
			}
		}
		if len(live) == 0 {
			return -1
		}
		return live[k%len(live)]
	}
	remove := func(s, pos int) {
		d.Remove(s, pos)
		ref.Remove(s, pos)
		delete(want, key{s, pos})
	}
	for step, tag := 0, 0; len(ops) > 0; step++ {
		op, s := next()%8, next()%sets
		switch op {
		case 0, 1, 2: // evict as the cache does, then insert
			enc, l := refEntry(byte(next()), byte(next()), &base)
			plan, ok := d.VictimPlan(s, enc.Segments())
			rplan, rok := ref.VictimPlan(s, enc.Segments())
			if ok != rok || !slices.Equal(plan, rplan) {
				t.Fatalf("step %d: VictimPlan(%d, %d) = %v, %v; reference %v, %v",
					step, s, enc.Segments(), plan, ok, rplan, rok)
			}
			for _, pos := range slices.Clone(plan) {
				remove(s, pos)
			}
			pos, rpos := d.Insert(s, &enc, tag), ref.Insert(s, &enc, tag)
			if pos != rpos {
				t.Fatalf("step %d: Insert placed at %d, reference at %d", step, pos, rpos)
			}
			want[key{s, pos}] = l
			tag++
		case 3: // remove a live entry
			if pos := livePos(s, next()); pos >= 0 {
				remove(s, pos)
			}
		case 4: // plan or cost an arbitrary need, including infeasible ones
			need := next() % (segsPerSet + 3)
			plan, ok := d.VictimPlan(s, need)
			rplan, rok := ref.VictimPlan(s, need)
			if ok != rok || !slices.Equal(plan, rplan) {
				t.Fatalf("step %d: VictimPlan(%d, %d) = %v, %v; reference %v, %v",
					step, s, need, plan, ok, rplan, rok)
			}
			if c, rc := d.EvictionCost(s, need), ref.EvictionCost(s, need); c != rc {
				t.Fatalf("step %d: EvictionCost(%d, %d) = %d, reference %d", step, s, need, c, rc)
			}
		case 5: // tag pointers of every startmap position, tombstones too
			for pos := range ref.sets[s].slots {
				if got, rgot := d.TagOf(s, pos), ref.TagOf(s, pos); got != rgot {
					t.Fatalf("step %d: TagOf(%d, %d) = %d, reference %d", step, s, pos, got, rgot)
				}
			}
		default: // decode one live entry through Get and encAt
			if pos := livePos(s, next()); pos >= 0 {
				var got, viaEncAt, rgot line.Line
				if err := diffenc.DecodeInto(&got, d.Get(s, pos), &base); err != nil {
					t.Fatalf("step %d: decode (%d, %d): %v", step, s, pos, err)
				}
				if err := diffenc.DecodeInto(&viaEncAt, d.encAt(s, pos), &base); err != nil {
					t.Fatalf("step %d: decode encAt (%d, %d): %v", step, s, pos, err)
				}
				if err := diffenc.DecodeInto(&rgot, ref.Get(s, pos), &base); err != nil {
					t.Fatalf("step %d: reference decode (%d, %d): %v", step, s, pos, err)
				}
				if w := want[key{s, pos}]; got != w || viaEncAt != w || rgot != w {
					t.Fatalf("step %d: entry (%d, %d) decodes wrong", step, s, pos)
				}
			}
		}
		for i := 0; i < sets; i++ {
			if f, rf := d.FreeSegs(i), ref.FreeSegs(i); f != rf {
				t.Fatalf("step %d: FreeSegs(%d) = %d, reference %d", step, i, f, rf)
			}
		}
		if err := d.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if err := ref.CheckInvariants(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// TestDataArrayMatchesReference drives seeded random operation streams
// into the record-layout DataArray and the slot-per-entry reference.
func TestDataArrayMatchesReference(t *testing.T) {
	rng := xrand.New(0xda7a)
	for trial := 0; trial < 200; trial++ {
		ops := make([]byte, 600)
		for i := range ops {
			ops[i] = byte(rng.Uint32())
		}
		checkDataArrayOps(t, ops)
	}
}

// FuzzDataArrayMatchesReference is TestDataArrayMatchesReference over
// fuzzer-chosen operation streams.
func FuzzDataArrayMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 7, 0, 0, 1, 9, 7, 0, 0, 3, 0, 0})
	f.Add([]byte{2, 1, 3, 1, 2, 1, 3, 2, 2, 1, 3, 3, 4, 1, 17, 6, 1, 0})
	f.Add(bytes.Repeat([]byte{1, 2, 0, 1}, 64))
	f.Fuzz(func(t *testing.T, ops []byte) {
		checkDataArrayOps(t, ops)
	})
}

// TestDataArrayFootprint pins the record layout's memory: a slot record
// is at most 88 bytes, and a default-configuration data array, records
// and set rows together, is at most 4.5 MiB.
func TestDataArrayFootprint(t *testing.T) {
	if size := unsafe.Sizeof(slot{}); size > 88 {
		t.Fatalf("slot record is %d bytes, want at most 88", size)
	}
	cache.DrainPools() // a parked array may have been widened
	cfg := DefaultConfig()
	d := NewDataArray(cfg.DataSets, cfg.SegmentsPerSet)
	defer d.Release()
	bytes := uintptr(len(d.slots))*unsafe.Sizeof(slot{}) + uintptr(len(d.sets))*unsafe.Sizeof(dataSet{})
	if bytes > 4.5*(1<<20) {
		t.Fatalf("default data array is %d bytes, want at most 4.5 MiB", bytes)
	}
}
