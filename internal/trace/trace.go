// Package trace defines the memory-access trace representation shared by
// the workload generators, the cache hierarchy, and the experiment
// harness. Because compression behaviour depends on data values, events
// carry full 64-byte line contents, not just addresses.
//
// Two event levels exist:
//
//   - Access: a core-level load/store as emitted by a workload generator,
//     annotated with the instruction gap since the previous access so the
//     harness can compute MPKI and IPC;
//   - Event (in package sim): the LLC-level stream after L1/L2 filtering.
package trace

import "repro/internal/line"

// Access is one core-level memory access.
type Access struct {
	// Addr is the byte address accessed; caches operate on Addr.LineAddr().
	Addr line.Addr
	// Write indicates a store; Data then holds the full new line content.
	Write bool
	// Gap is the number of non-memory instructions executed since the
	// previous access (the access instruction itself adds one more).
	Gap uint32
	// Data is the complete content of the accessed line after the access
	// (stores) — unused for loads.
	Data line.Line
}

// Source produces a stream of accesses. Next returns false when the trace
// is exhausted. Implementations are single-consumer.
type Source interface {
	// Next fills *a with the next access and reports whether one existed.
	Next(a *Access) bool
}

// BatchSource is an optional extension of Source. Consumers that process
// many accesses (the simulation drivers) can pull them a batch at a time,
// amortizing the per-access interface call; producers must emit exactly
// the sequence repeated Next calls would.
type BatchSource interface {
	Source
	// FillBatch fills dst with the next accesses and returns how many were
	// produced; fewer than len(dst) (including 0) means the trace ended.
	FillBatch(dst []Access) int
}

// SliceSource replays a fixed slice of accesses.
type SliceSource struct {
	accesses []Access
	pos      int
}

// NewSliceSource returns a Source over the given accesses.
func NewSliceSource(accesses []Access) *SliceSource {
	return &SliceSource{accesses: accesses}
}

// Next implements Source.
func (s *SliceSource) Next(a *Access) bool {
	if s.pos >= len(s.accesses) {
		return false
	}
	*a = s.accesses[s.pos]
	s.pos++
	return true
}

// FillBatch implements BatchSource by copying directly from the backing
// slice.
func (s *SliceSource) FillBatch(dst []Access) int {
	n := copy(dst, s.accesses[s.pos:])
	s.pos += n
	return n
}

// Reset rewinds the source to the beginning.
func (s *SliceSource) Reset() { s.pos = 0 }

// Collect drains up to max accesses from src into a slice (max <= 0 means
// drain everything).
func Collect(src Source, max int) []Access {
	var out []Access
	if max > 0 {
		out = make([]Access, 0, max)
	}
	var a Access
	for (max <= 0 || len(out) < max) && src.Next(&a) {
		out = append(out, a)
	}
	return out
}
