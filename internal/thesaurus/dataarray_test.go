package thesaurus

import (
	"testing"

	"repro/internal/diffenc"
	"repro/internal/line"
	"repro/internal/xrand"
)

func rawEnc(fill byte) *diffenc.Encoded {
	var l line.Line
	for i := range l {
		l[i] = fill
	}
	return &diffenc.Encoded{Format: diffenc.FormatRaw, Payload: l}
}

func diffEnc(n int) *diffenc.Encoded {
	e := &diffenc.Encoded{Format: diffenc.FormatBaseDiff, N: uint8(n)}
	for i := 0; i < n; i++ {
		e.Mask |= 1 << uint(i)
		e.Payload[i] = byte(i)
	}
	return e
}

func TestDataArrayInsertGetRemove(t *testing.T) {
	d := NewDataArray(4, 64)
	slot := d.Insert(0, diffEnc(4), 99)
	if got := d.Get(0, slot); got.DiffBytes() != 4 {
		t.Fatalf("Get returned %+v", got)
	}
	if d.TagOf(0, slot) != 99 {
		t.Fatal("tag pointer lost")
	}
	if d.FreeSegs(0) != 62 { // 4-byte diff = 12B = 2 segments
		t.Fatalf("FreeSegs = %d", d.FreeSegs(0))
	}
	d.Remove(0, slot)
	if d.FreeSegs(0) != 64 {
		t.Fatal("Remove did not free segments")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDataArrayTombstoneReuseKeepsOrdinals(t *testing.T) {
	d := NewDataArray(1, 64)
	s0 := d.Insert(0, diffEnc(4), 0)
	s1 := d.Insert(0, diffEnc(4), 1)
	s2 := d.Insert(0, diffEnc(4), 2)
	d.Remove(0, s1)
	// s0 and s2 keep their slot indices across the removal (the paper's
	// startmap property, Fig. 11c).
	if d.TagOf(0, s0) != 0 || d.TagOf(0, s2) != 2 {
		t.Fatal("ordinals disturbed by removal")
	}
	// New insertion reuses the tombstone (Fig. 11d).
	s3 := d.Insert(0, diffEnc(8), 3)
	if s3 != s1 {
		t.Fatalf("tombstone not reused: got slot %d, want %d", s3, s1)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDataArrayOverflowPanics(t *testing.T) {
	d := NewDataArray(1, 16)
	d.Insert(0, rawEnc(1), 0) // 8 segments
	d.Insert(0, rawEnc(2), 1) // 8 segments: full
	defer func() {
		if recover() == nil {
			t.Fatal("overflow insert did not panic")
		}
	}()
	d.Insert(0, diffEnc(1), 2)
}

func TestVictimPlanLargestFirst(t *testing.T) {
	d := NewDataArray(1, 64)
	d.Insert(0, diffEnc(4), 0)  // 2 segs
	d.Insert(0, rawEnc(1), 1)   // 8 segs
	d.Insert(0, diffEnc(20), 2) // 4 segs
	// 50 free; ask for 56 → need to free ≥6 → the raw (8-seg) entry alone.
	plan, ok := d.VictimPlan(0, 56)
	if !ok || len(plan) != 1 || d.TagOf(0, plan[0]) != 1 {
		t.Fatalf("plan %v ok=%v", plan, ok)
	}
	// Fits already → empty plan.
	if plan, ok := d.VictimPlan(0, 10); !ok || plan != nil {
		t.Fatalf("no-op plan %v", plan)
	}
	// Impossible.
	if _, ok := d.VictimPlan(0, 65); ok {
		t.Fatal("impossible plan succeeded")
	}
}

func TestEvictionCost(t *testing.T) {
	d := NewDataArray(2, 64)
	d.Insert(0, rawEnc(1), 0)
	if c := d.EvictionCost(0, 60); c != 4 {
		t.Fatalf("cost = %d", c)
	}
	if c := d.EvictionCost(1, 60); c != 0 {
		t.Fatalf("empty set cost = %d", c)
	}
}

func TestDataArrayRandomizedInvariants(t *testing.T) {
	d := NewDataArray(8, 64)
	rng := xrand.New(11)
	type live struct{ set, slot int }
	var entries []live
	for step := 0; step < 20000; step++ {
		if rng.Bool(0.6) || len(entries) == 0 {
			set := rng.Intn(8)
			var enc *diffenc.Encoded
			if rng.Bool(0.3) {
				enc = rawEnc(byte(step))
			} else {
				enc = diffEnc(1 + rng.Intn(40))
			}
			if d.FreeSegs(set) < enc.Segments() {
				continue
			}
			slot := d.Insert(set, enc, step)
			entries = append(entries, live{set, slot})
		} else {
			i := rng.Intn(len(entries))
			d.Remove(entries[i].set, entries[i].slot)
			entries[i] = entries[len(entries)-1]
			entries = entries[:len(entries)-1]
		}
		if step%500 == 0 {
			if err := d.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	// Every live entry still resolves.
	for _, e := range entries {
		d.Get(e.set, e.slot)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestUsedBytesAndCapacity(t *testing.T) {
	d := NewDataArray(2, 64)
	if d.CapacityBytes() != 2*64*8 {
		t.Fatalf("capacity %d", d.CapacityBytes())
	}
	d.Insert(0, rawEnc(1), 0)
	if d.UsedBytes() != 64 {
		t.Fatalf("used %d", d.UsedBytes())
	}
}

func TestStartmapNeverExhausted(t *testing.T) {
	// Worst case: fill with 2-segment entries (32 of them), remove all,
	// repeat — tombstones must always be reusable.
	d := NewDataArray(1, 64)
	for round := 0; round < 10; round++ {
		var slots []int
		for i := 0; i < 32; i++ {
			slots = append(slots, d.Insert(0, diffEnc(1), i))
		}
		for _, s := range slots {
			d.Remove(0, s)
		}
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
