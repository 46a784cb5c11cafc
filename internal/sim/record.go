package sim

import (
	"repro/internal/cache"
	"repro/internal/line"
	"repro/internal/memory"
	"repro/internal/trace"
)

// EventKind distinguishes LLC-level operations.
type EventKind uint8

// LLC-level event kinds.
const (
	// EventRead is a demand fill request from the L2 (L2 read or write
	// miss: both allocate).
	EventRead EventKind = iota
	// EventWrite is a dirty writeback from the L2.
	EventWrite
)

// Event is one LLC-level access. For EventRead, Data is the value a miss
// must return (the program's current value of the line); for EventWrite it
// is the content being written back.
type Event struct {
	Kind   EventKind
	Addr   line.Addr
	Data   line.Line
	Instrs uint64 // instructions retired since the previous event
}

// Recorded is the L1/L2-filtered form of a workload: the LLC event stream
// plus the upper-level statistics needed by the timing model. It is
// computed once per workload and replayed into every LLC design.
type Recorded struct {
	Events       []Event
	Instructions uint64
	CoreAccesses uint64
	L1Hits       uint64
	L2Hits       uint64
	// UniqueLines is the number of distinct line addresses in Events. The
	// artifact codec stores it and sizes its line pool from it; Replay
	// does not read it (it stages fills with Store.Stage).
	UniqueLines int
}

// LLCAPKI returns LLC accesses per kilo-instruction (pressure indicator).
func (r *Recorded) LLCAPKI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(len(r.Events)) / float64(r.Instructions) * 1000
}

// l1Payload / l2Payload: the private levels are tag-only; data lives in
// the shared image (writes update it immediately, and dirty evictions
// snapshot it on the way down).
type void struct{}

// Record streams src through the private L1D and L2 and returns the
// resulting LLC-level event stream. img is the program's memory image: it
// must hold each line's initial data (mirroring the paper's warmup skip)
// by the time src yields the first access to that line — the workload
// streams write it then — and is updated in place by stores.
func Record(src trace.Source, sys SystemConfig, img *memory.Store) *Recorded {
	l1 := cache.New[void](cache.LineConfig(sys.L1DSizeBytes, sys.L1DWays, "lru"))
	l2 := cache.New[void](cache.LineConfig(sys.L2SizeBytes, sys.L2Ways, "lru"))
	rec := &Recorded{}
	var sinceLast uint64

	emit := func(kind EventKind, addr line.Addr) {
		rec.Events = append(rec.Events, Event{
			Kind:   kind,
			Addr:   addr,
			Data:   img.Peek(addr),
			Instrs: sinceLast,
		})
		sinceLast = 0
	}

	// l2Evict handles an L2 eviction: inclusive hierarchy, so the L1 copy
	// (if any) is back-invalidated, its dirtiness folding into the
	// writeback (the image already holds the latest value).
	l2Evict := func(e cache.Entry[void]) {
		dirty := e.Dirty
		if l1e, idx := l1.Peek(e.Addr); l1e != nil {
			dirty = dirty || l1e.Dirty
			l1.InvalidateIndex(idx)
		}
		if dirty {
			emit(EventWrite, e.Addr)
		}
	}

	handle := func(a *trace.Access) {
		addr := a.Addr.LineAddr()
		rec.Instructions += uint64(a.Gap) + 1
		sinceLast += uint64(a.Gap) + 1
		rec.CoreAccesses++
		// The image is updated only after the hierarchy handles the
		// access: a write-miss fill (EventRead) must carry the line's
		// pre-write value — the store is applied in the L1 afterwards.
		if e, _ := l1.Lookup(addr); e != nil {
			rec.L1Hits++
			if a.Write {
				e.Dirty = true
				img.Poke(addr, a.Data)
			}
			return
		}
		// L1 miss: look up L2.
		l2e, _ := l2.Lookup(addr)
		if l2e != nil {
			rec.L2Hits++
		} else {
			// L2 miss: demand fill from the LLC.
			emit(EventRead, addr)
			ne, _, evicted, had := l2.Insert(addr)
			if had {
				l2Evict(evicted)
			}
			l2e = ne
		}
		// Fill L1 (inclusive under L2).
		l1e, _, evicted, had := l1.Insert(addr)
		if had && evicted.Dirty {
			// L1 dirty victim merges into its L2 copy.
			if l2v, _ := l2.Peek(evicted.Addr); l2v != nil {
				l2v.Dirty = true
			} else {
				// Non-inclusive corner (back-invalidated earlier): write
				// through to the LLC.
				emit(EventWrite, evicted.Addr)
			}
		}
		if a.Write {
			l1e.Dirty = true
			img.Poke(addr, a.Data)
		}
		_ = l1e
	}

	// Pull accesses in batches when the source supports it (the workload
	// streams and SliceSource do): one interface call per batch instead of
	// per access, with identical access sequence either way.
	if bs, ok := src.(trace.BatchSource); ok {
		var batch [512]trace.Access
		for {
			n := bs.FillBatch(batch[:])
			for i := 0; i < n; i++ {
				handle(&batch[i])
			}
			if n < len(batch) {
				break
			}
		}
	} else {
		var a trace.Access
		for src.Next(&a) {
			handle(&a)
		}
	}

	// Flush dirty L1/L2 state? No: the paper measures a window of steady
	// execution; residual dirty lines simply never reach the LLC, exactly
	// as in a windowed simulation.
	seen := make(map[line.Addr]struct{}, len(rec.Events))
	for i := range rec.Events {
		seen[rec.Events[i].Addr] = struct{}{}
	}
	rec.UniqueLines = len(seen)
	return rec
}
