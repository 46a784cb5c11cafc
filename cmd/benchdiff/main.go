// Command benchdiff judges the BenchmarkHotPath rows of a change against
// a base tree measured in the same session. Each input is `go test -bench`
// output holding the same number of runs; the i-th sample of a row in one
// file is paired with the i-th sample of that row in the other, so the
// runs of a pair should be made back to back, alternating which side goes
// first (`make bench-diff` does this).
//
// Usage:
//
//	benchdiff base.txt change.txt
//
// A row's class is the name element after BenchmarkHotPath. Only kernel
// and hot-path rows are gated. A gated row fails when its allocs/op grow,
// when the change no longer has it, or when all three of these hold:
//
//   - its median ns/op is more than 15% above the base's;
//   - it is slower in at least 9 of 10 pairs;
//   - the gap between the medians exceeds the base's interquartile range.
//
// On a shared host one condition alone is noise: two copies of one binary
// read pair ratios from 0.70 to 1.28, and row medians more than 15% apart.
// A gated row over 15% that misses either other condition prints as
// unresolved. Other classes print for the record and never fail. The exit
// status is 1 on a regression and 2 on a usage or input error.
package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

const (
	// maxSlowdown is the largest change/base ratio of medians that
	// passes outright.
	maxSlowdown = 1.15
	// minSlowerShare is the share of pairs a row must be slower in to fail.
	minSlowerShare = 0.9
)

// series is one row's samples in run order.
type series struct{ ns, allocs []float64 }

// runs holds each row's series and the row names in order of first
// appearance.
type runs struct {
	names []string
	rows  map[string]series
}

// parse reads benchmark result lines (name, iterations, then value and
// unit pairs) and skips every other line.
func parse(r io.Reader) (runs, error) {
	rs := runs{rows: map[string]series{}}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue
		}
		name := strings.TrimPrefix(f[0], "BenchmarkHotPath/")
		s, seen := rs.rows[name]
		if !seen {
			rs.names = append(rs.names, name)
		}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return rs, fmt.Errorf("%q: %w", sc.Text(), err)
			}
			switch f[i+1] {
			case "ns/op":
				s.ns = append(s.ns, v)
			case "allocs/op":
				s.allocs = append(s.allocs, v)
			}
		}
		rs.rows[name] = s
	}
	return rs, sc.Err()
}

// row is one row's comparison, ready to print.
type row struct {
	name, verdict string
	base, change  series
}

// compare judges every row of base against change, then lists the rows
// only the change has. failed names each regression and its cause.
func compare(base, change runs) (rows []row, failed []string) {
	for _, name := range base.names {
		b, c := base.rows[name], change.rows[name]
		class, _, _ := strings.Cut(name, "/")
		gated := class == "kernel" || class == "hot-path"
		r := row{name: name, base: b, change: c, verdict: "record"}
		switch {
		case len(c.ns) == 0:
			r.verdict = "missing"
			if gated {
				r.verdict = "REGRESSION"
				failed = append(failed, name+": gated row missing from the change")
			}
		case gated && median(c.allocs) > median(b.allocs):
			r.verdict = "REGRESSION"
			failed = append(failed, fmt.Sprintf("%s: allocs/op %g -> %g",
				name, median(b.allocs), median(c.allocs)))
		case gated && median(c.ns) > maxSlowdown*median(b.ns):
			r.verdict = "unresolved"
			slower, pairs := slowerPairs(b.ns, c.ns)
			if float64(slower) >= minSlowerShare*float64(pairs) && median(c.ns)-median(b.ns) > iqr(b.ns) {
				r.verdict = "REGRESSION"
				failed = append(failed, fmt.Sprintf("%s: median %.1f -> %.1f ns/op, slower in %d of %d pairs, base IQR %.1f",
					name, median(b.ns), median(c.ns), slower, pairs, iqr(b.ns)))
			}
		case gated:
			r.verdict = "ok"
		}
		rows = append(rows, r)
	}
	for _, name := range change.names {
		if _, ok := base.rows[name]; !ok {
			rows = append(rows, row{name: name, verdict: "new", change: change.rows[name]})
		}
	}
	return rows, failed
}

// slowerPairs counts the pairs in which the change took longer.
func slowerPairs(base, change []float64) (slower, pairs int) {
	pairs = min(len(base), len(change))
	for i := 0; i < pairs; i++ {
		if change[i] > base[i] {
			slower++
		}
	}
	return slower, pairs
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func iqr(xs []float64) float64 { return quantile(xs, 0.75) - quantile(xs, 0.25) }

// quantile interpolates the p-quantile of xs between order statistics;
// it is 0 for no samples.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	i := int(pos)
	if i+1 == len(s) {
		return s[i]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff base.txt change.txt")
		os.Exit(2)
	}
	var sides [2]runs
	for i, path := range os.Args[1:] {
		f, err := os.Open(path)
		if err == nil {
			sides[i], err = parse(f)
			f.Close()
		}
		if err == nil && len(sides[i].names) == 0 {
			err = errors.New("no benchmark rows")
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %s: %v\n", path, err)
			os.Exit(2)
		}
	}
	rows, failed := compare(sides[0], sides[1])
	fmt.Printf("%-40s %11s %11s %6s %6s %9s %9s  %s\n",
		"row", "base ns/op", "new ns/op", "ratio", "slower", "base IQR", "allocs", "verdict")
	for _, r := range rows {
		slower, pairs := slowerPairs(r.base.ns, r.change.ns)
		fmt.Printf("%-40s %11.1f %11.1f %6.3f %6s %9.1f %4g->%-4g  %s\n",
			r.name, median(r.base.ns), median(r.change.ns), median(r.change.ns)/median(r.base.ns),
			fmt.Sprintf("%d/%d", slower, pairs), iqr(r.base.ns),
			median(r.base.allocs), median(r.change.allocs), r.verdict)
	}
	if len(failed) > 0 {
		fmt.Printf("bench-diff: %d regression(s):\n  %s\n", len(failed), strings.Join(failed, "\n  "))
		os.Exit(1)
	}
	fmt.Println("bench-diff: no regression in the kernel and hot-path rows")
}
