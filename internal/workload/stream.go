package workload

import (
	"fmt"
	"math"

	"repro/internal/line"
	"repro/internal/memory"
	"repro/internal/trace"
	"repro/internal/xrand"
)

// RegionSpec declares one address-space region of a profile.
type RegionSpec struct {
	// Name labels the region in diagnostics.
	Name string
	// Lines is the region size in cachelines.
	Lines int
	// Weight is the relative access probability.
	Weight float64
	// Gen produces line contents.
	Gen LineGen
	// Group assigns the region to a phase group (see PatternSpec); -1
	// keeps it always active.
	Group int
}

// PatternSpec declares a profile's access behaviour.
type PatternSpec struct {
	// SeqFraction of accesses advance a per-region sequential cursor;
	// the rest are skewed random accesses.
	SeqFraction float64
	// Skew shapes the random accesses: index = ⌊lines·u^Skew⌋ over a
	// per-region permutation base, so Skew=1 is uniform and larger values
	// concentrate reuse on a hot subset.
	Skew float64
	// WriteFraction of accesses are stores (which regenerate the line at
	// a new version, preserving cluster structure).
	WriteFraction float64
	// GapMean is the mean number of non-memory instructions between
	// accesses.
	GapMean float64
	// PhaseEvery rotates the active phase group every so many accesses
	// (0 disables phases); active-group regions get 8× weight.
	PhaseEvery int
	// PhaseGroups is the number of phase groups.
	PhaseGroups int
}

// regionState is a region bound to a base address with streaming state.
type regionState struct {
	spec    RegionSpec
	base    line.Addr
	cursor  int
	version []uint32 // per-line write versions, indexed by line
	filled  []uint64 // bitmap of lines whose version-0 content is in the image
}

// Stream generates a profile's access trace; it implements trace.Source
// and trace.BatchSource.
type Stream struct {
	regions []*regionState
	pat     PatternSpec
	rng     *xrand.Rand
	count   int
	limit   int
	img     *memory.Store

	// Cached per-region effective weights for the current active phase
	// group. Region weights only change when the active group rotates
	// (every PhaseEvery accesses), so pickRegion reuses the sums instead
	// of recomputing them per access. weightsFor is the active group the
	// cache was built for (-2 = never built).
	weights    []float64
	weightSum  float64
	weightsFor int
}

// regionGap separates region base addresses so set-index bits differ.
const regionGap = 1 << 30

// newStream lays out regions and returns a source producing limit
// accesses. img starts empty: Next writes a line's initial content into
// it when it first emits an access to that line.
func newStream(seed uint64, regions []RegionSpec, pat PatternSpec, limit int, img *memory.Store) *Stream {
	s := &Stream{pat: pat, rng: xrand.New(seed), limit: limit, img: img, weightsFor: -2}
	base := line.Addr(1 << 33)
	for _, spec := range regions {
		if spec.Lines <= 0 || spec.Gen == nil {
			panic(fmt.Sprintf("workload: bad region %q", spec.Name))
		}
		rs := &regionState{spec: spec, base: base, version: make([]uint32, spec.Lines),
			filled: make([]uint64, (spec.Lines+63)/64)}
		s.regions = append(s.regions, rs)
		base += line.Addr((spec.Lines + regionGap/line.Size) * line.Size)
		base = base.LineAddr()
	}
	return s
}

func (r *regionState) addr(i int) line.Addr {
	return r.base + line.Addr(i*line.Size)
}

// pickRegion selects a region by weight, boosting the active phase group.
func (s *Stream) pickRegion() *regionState {
	active := -1
	if s.pat.PhaseEvery > 0 && s.pat.PhaseGroups > 0 {
		active = (s.count / s.pat.PhaseEvery) % s.pat.PhaseGroups
	}
	if active != s.weightsFor {
		// Rebuild the weight cache. The sum accumulates in region order,
		// exactly as the uncached loop did, so the float rounding — and
		// therefore the region sequence — is bit-identical.
		s.weights = s.weights[:0]
		s.weightSum = 0
		for _, r := range s.regions {
			w := s.effWeight(r, active)
			s.weights = append(s.weights, w)
			s.weightSum += w
		}
		s.weightsFor = active
	}
	x := s.rng.Float64() * s.weightSum
	for k, r := range s.regions {
		x -= s.weights[k]
		if x <= 0 {
			return r
		}
	}
	return s.regions[len(s.regions)-1]
}

func (s *Stream) effWeight(r *regionState, active int) float64 {
	w := r.spec.Weight
	if r.spec.Group >= 0 && active >= 0 {
		if r.spec.Group == active {
			w *= 8
		} else {
			w *= 0.125
		}
	}
	return w
}

// pickLine chooses a line index within r per the pattern.
func (s *Stream) pickLine(r *regionState) int {
	if s.rng.Float64() < s.pat.SeqFraction {
		i := r.cursor
		r.cursor = (r.cursor + 1) % r.spec.Lines
		return i
	}
	u := s.rng.Float64()
	skew := s.pat.Skew
	if skew < 1 {
		skew = 1
	}
	i := int(math.Pow(u, skew) * float64(r.spec.Lines))
	if i >= r.spec.Lines {
		i = r.spec.Lines - 1
	}
	// Scramble with a fixed bijection (i·p mod lines, p prime > lines) so
	// the hot subset is spread across cache sets rather than contiguous.
	return int(uint64(i) * 1000000007 % uint64(r.spec.Lines))
}

// Next implements trace.Source. The first access to a line writes the
// line's version-0 content into the image, before any consumer of the
// access can read or store the line, so the image a consumer sees is the
// one a fully pre-populated image would show. Lines the trace never
// touches are never generated.
func (s *Stream) Next(a *trace.Access) bool {
	if s.count >= s.limit {
		return false
	}
	s.count++
	r := s.pickRegion()
	i := s.pickLine(r)
	a.Addr = r.addr(i)
	if w, bit := i/64, uint64(1)<<(i%64); r.filled[w]&bit == 0 {
		r.filled[w] |= bit
		s.img.Poke(a.Addr, r.spec.Gen.Line(i, 0))
	}
	gapP := 1.0 / (s.pat.GapMean + 1)
	a.Gap = uint32(s.rng.Geometric(gapP))
	if s.rng.Float64() < s.pat.WriteFraction {
		a.Write = true
		v := r.version[i] + 1
		r.version[i] = v
		a.Data = r.spec.Gen.Line(i, v)
	} else {
		a.Write = false
	}
	return true
}

// FillBatch implements trace.BatchSource: it fills dst with the next
// accesses and returns how many were produced. The access sequence is
// identical to repeated Next calls; batching only saves the per-access
// interface-call round trip on the replay side.
func (s *Stream) FillBatch(dst []trace.Access) int {
	n := 0
	for n < len(dst) && s.Next(&dst[n]) {
		n++
	}
	return n
}

// Generated bundles a memory image with its access stream. The image
// holds the initial content of exactly the lines the stream has emitted
// so far (see Stream.Next), plus whatever its consumer stored.
type Generated struct {
	Image  *memory.Store
	Stream *Stream
}

// WorkingSetBytes returns the profile's declared footprint: every region
// line, touched or not. The image holds only the touched lines.
func (g *Generated) WorkingSetBytes() int {
	total := 0
	for _, r := range g.Stream.regions {
		total += r.spec.Lines * line.Size
	}
	return total
}
