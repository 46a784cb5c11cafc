// Package llc defines the contract every last-level-cache design in this
// repository implements — conventional, BΔI, Dedup, Thesaurus, and the
// ideal models — so the hierarchy simulator and the experiment harness
// are design-agnostic.
package llc

import (
	"slices"

	"repro/internal/line"
)

// Cache is a last-level cache holding data (possibly compressed), backed
// by a memory.Store it fills from and writes back to.
type Cache interface {
	// Name identifies the design in reports ("Baseline", "Thesaurus", …).
	Name() string
	// Read returns the current content of addr's line and whether it hit.
	// On a miss the implementation fills from its backing store, inserts,
	// and still returns the data.
	Read(addr line.Addr) (line.Line, bool)
	// Write installs new content for addr's line (write-allocate,
	// write-back) and reports whether it hit.
	Write(addr line.Addr, data line.Line) bool
	// Stats returns the accumulated access statistics.
	Stats() Stats
	// ResetStats zeroes the statistics (end of warmup).
	ResetStats()
	// Footprint samples the current storage occupancy (Fig. 13a metric).
	Footprint() Footprint
	// Release ends the cache's life: it extracts an immutable statistics
	// snapshot and frees the bulk storage (data arrays, delta pools, base
	// tables — which may return to allocation pools for reuse). After
	// Release only the returned snapshot may be consulted; any other use
	// of the cache is a bug (a second Release panics, and thesauruslint's
	// releaseuse analyzer flags post-release reads statically).
	Release() StatsSnapshot
}

// StatsSnapshot is the immutable record of a released cache: everything
// the experiment and report layers may consult once the cache's storage
// is gone. The common Stats are embedded by value; design-specific
// statistics (encoding mixes, base-cache counters, resident-line dumps)
// ride in Extra as a design-owned snapshot type.
type StatsSnapshot struct {
	// Design is the cache's report name, as Name() returned it.
	Design string
	// Stats are the accumulated access statistics at release time.
	Stats Stats
	// Extra holds the design-specific snapshot, or nil if the design has
	// none. Callers type-assert to the design's exported snapshot type
	// (e.g. *thesaurus.Snapshot).
	Extra ExtraSnapshot
}

// ExtraSnapshot is a design-specific statistics snapshot. Implementations
// must be deep-copyable so memoized results can hand every caller an
// isolated view.
type ExtraSnapshot interface {
	// Clone returns a deep copy sharing no mutable state with the
	// receiver.
	Clone() ExtraSnapshot
}

// Counter is one named event count of a design.
type Counter struct {
	Name  string
	Value uint64
}

// Counters is the release snapshot of a design whose own statistics are
// only event counts, in the design's stable order.
type Counters []Counter

// Clone implements ExtraSnapshot.
func (c Counters) Clone() ExtraSnapshot { return slices.Clone(c) }

// Clone returns a deep copy of the snapshot (Extra included).
func (s StatsSnapshot) Clone() StatsSnapshot {
	cp := s
	if s.Extra != nil {
		cp.Extra = s.Extra.Clone()
	}
	return cp
}

// Stats counts LLC-level events common to all designs.
type Stats struct {
	Reads      uint64
	Writes     uint64
	ReadHits   uint64
	WriteHits  uint64
	Fills      uint64 // demand fills from memory
	Writebacks uint64 // dirty evictions to memory
}

// Accesses returns total reads + writes.
func (s Stats) Accesses() uint64 { return s.Reads + s.Writes }

// Misses returns total demand misses (read + write).
func (s Stats) Misses() uint64 {
	return (s.Reads - s.ReadHits) + (s.Writes - s.WriteHits)
}

// ReadMisses returns demand read misses, the MPKI numerator used in the
// paper's Figure 13b.
func (s Stats) ReadMisses() uint64 { return s.Reads - s.ReadHits }

// Footprint is an occupancy sample: how much data-array space the
// currently resident addresses use versus the space a conventional cache
// would need for the same addresses (64 bytes each).
type Footprint struct {
	// ResidentLines is the number of valid tags (cached addresses).
	ResidentLines int
	// DataBytesUsed is the data-array space those addresses occupy.
	DataBytesUsed int
	// DataBytesTotal is the design's data-array capacity.
	DataBytesTotal int
}

// CompressionRatio returns (64 × resident) / used — the effective
// capacity multiplier of Fig. 13a. It returns 1 for an empty cache and
// +Inf is avoided by flooring used at one byte per resident line.
func (f Footprint) CompressionRatio() float64 {
	if f.ResidentLines == 0 {
		return 1
	}
	used := f.DataBytesUsed
	if used < f.ResidentLines { // all-zero-dominated corner: ≥1B/line floor
		used = f.ResidentLines
	}
	return float64(f.ResidentLines*line.Size) / float64(used)
}
