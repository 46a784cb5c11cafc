// Package ideal implements the idealized compression models the paper
// uses to bound what is achievable:
//
//   - Ideal-Dedup (Fig. 1): instantly finds exact duplicates anywhere in
//     the LLC and stores each distinct value once;
//   - Ideal-Diff (Fig. 1): instantly finds the most similar resident line
//     and stores only the differing bytes when that is smaller;
//   - an online Ideal-Diff cache (the "Ideal" series of Fig. 13) that
//     performs the whole-cache nearest-line search at every insertion.
//
// The whole-cache search is accelerated with an exact-word index: lines
// within a useful diff distance almost always share at least one aligned
// 8-byte word with their nearest neighbour, so candidates are found by
// word equality and supplemented with a random probe set. This is the one
// deliberate approximation in the package (DESIGN.md, "The Ideal-Diff
// candidate search").
package ideal

import (
	"repro/internal/diffenc"
	"repro/internal/line"
	"repro/internal/xrand"
)

// DedupSnapshot returns the effective-capacity factor of ideal exact
// deduplication over a snapshot: total lines divided by distinct values
// (zero lines are free, as a zero tag encoding needs no data).
func DedupSnapshot(lines []line.Line) float64 {
	if len(lines) == 0 {
		return 1
	}
	uniq := make(map[line.Line]struct{}, len(lines))
	nonZero := 0
	for i := range lines {
		if lines[i].IsZero() {
			continue
		}
		nonZero++
		uniq[lines[i]] = struct{}{}
	}
	if len(uniq) == 0 {
		return float64(len(lines)) // all-zero snapshot: effectively free
	}
	return float64(len(lines)) / float64(len(uniq))
}

// DiffSnapshot returns the effective-capacity factor of ideal diff
// compression over a snapshot, processed in insertion order: each line is
// stored as mask+diff against the most similar earlier line whenever that
// is smaller than a raw line.
func DiffSnapshot(lines []line.Line) float64 {
	if len(lines) == 0 {
		return 1
	}
	idx := newWordIndex(0x1dea)
	costBytes := 0
	for i := range lines {
		l := &lines[i]
		if l.IsZero() {
			continue // zero lines are tag-only
		}
		cost := line.Size
		if best, ok := idx.nearest(l, lines); ok {
			if d := line.DiffBytes(l, &lines[best]); diffenc.DiffSizeBytes(d) < cost {
				cost = diffenc.DiffSizeBytes(d)
			}
		}
		// A 0+diff against the implicit zero line is also available.
		if z := diffenc.DiffSizeBytes(l.PopCountNonZero()); z < cost {
			cost = z
		}
		costBytes += cost
		idx.add(i, l)
	}
	if costBytes == 0 {
		return float64(len(lines))
	}
	return float64(len(lines)*line.Size) / float64(costBytes)
}

// DiffCDF returns, for each n in 0..64, the fraction of lines whose
// minimum byte-difference against any other snapshot line is at most n
// (Fig. 2 top). Exact duplicates fall in the n=0 bucket.
func DiffCDF(lines []line.Line) [line.Size + 1]float64 {
	var cdf [line.Size + 1]float64
	if len(lines) < 2 {
		return cdf
	}
	idx := newWordIndex(0x2cdf)
	for i := range lines {
		idx.add(i, &lines[i])
	}
	counts := make([]int, line.Size+1)
	for i := range lines {
		best := line.Size
		if j, ok := idx.nearestExcluding(&lines[i], lines, i); ok {
			best = line.DiffBytes(&lines[i], &lines[j])
		}
		counts[best]++
	}
	cum := 0
	for n := 0; n <= line.Size; n++ {
		cum += counts[n]
		cdf[n] = float64(cum) / float64(len(lines))
	}
	return cdf
}

// wordIndex locates near-duplicate candidates by exact 8-byte word match,
// with a bounded random probe fallback. Unlike the online cache's index
// it never changes under a lookup: a snapshot's lines do not move, so
// there is nothing stale to clean and a long list is only cut short.
type wordIndex struct {
	words wordTable // word → snapshot indices of the lines holding it
	all   []int
	rng   *xrand.Rand
}

// maxCandidates bounds the per-lookup work; beyond this the candidate set
// is sampled.
const maxCandidates = 192

// randomProbes supplements word-match candidates to catch neighbours that
// differ in every word.
const randomProbes = 32

func newWordIndex(seed uint64) *wordIndex {
	return &wordIndex{rng: xrand.New(seed)}
}

func (ix *wordIndex) add(id int, l *line.Line) {
	ix.words.reserve(line.WordsPerLine)
	for i := 0; i < line.WordsPerLine; i++ {
		w := l.Word(i)
		ix.words.add(ix.words.locate(w), w, uint64(id))
	}
	ix.all = append(ix.all, id)
}

// nearest returns the indexed line most similar to l.
func (ix *wordIndex) nearest(l *line.Line, lines []line.Line) (int, bool) {
	return ix.nearestExcluding(l, lines, -1)
}

// nearestExcluding is nearest but skips the line with index self.
func (ix *wordIndex) nearestExcluding(l *line.Line, lines []line.Line, self int) (int, bool) {
	best, bestDiff := -1, line.Size+1
	seen := 0
	consider := func(id int) {
		if id == self {
			return
		}
		seen++
		if d := line.DiffBytes(l, &lines[id]); d < bestDiff {
			best, bestDiff = id, d
		}
	}
	for i := 0; i < line.WordsPerLine && bestDiff > 0; i++ {
		for _, id := range ix.words.list(l.Word(i)) {
			consider(int(id))
			if seen > maxCandidates {
				break
			}
		}
	}
	for p := 0; p < randomProbes && len(ix.all) > 0; p++ {
		consider(ix.all[ix.rng.Intn(len(ix.all))])
	}
	return best, best >= 0
}
