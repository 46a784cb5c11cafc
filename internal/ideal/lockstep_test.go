package ideal

import (
	"math/bits"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/line"
	"repro/internal/memory"
	"repro/internal/xrand"
)

// opKind is one step of a lockstep stream.
type opKind uint8

const (
	opRead  opKind = iota
	opWrite        // a writeback from the core side: hit updates, miss installs
	opPoke         // sets backing-store content in both stores, outside the caches
)

type op struct {
	kind opKind
	addr line.Addr
	data line.Line
}

// lockstep drives the optimized cache and the reference over identical
// backing stores and fails on the first observable difference.
type lockstep struct {
	t               testing.TB
	got             *Cache
	want            *refCache
	gotMem, wantMem *memory.Store
	step            int
}

func newLockstep(t testing.TB, cfg Config) *lockstep {
	ls := &lockstep{t: t, gotMem: memory.NewStore(), wantMem: memory.NewStore()}
	ls.got = New(cfg, ls.gotMem)
	ls.want = newRefCache(cfg, ls.wantMem)
	return ls
}

func (ls *lockstep) apply(o op) {
	ls.t.Helper()
	ls.step++
	switch o.kind {
	case opPoke:
		ls.gotMem.Poke(o.addr, o.data)
		ls.wantMem.Poke(o.addr, o.data)
		return
	case opRead:
		g, gh := ls.got.Read(o.addr)
		w, wh := ls.want.Read(o.addr)
		if g != w || gh != wh {
			ls.t.Fatalf("step %d: read %#x = (%v, hit %v), reference (%v, hit %v)", ls.step, o.addr, g, gh, w, wh)
		}
	case opWrite:
		if gh, wh := ls.got.Write(o.addr, o.data), ls.want.Write(o.addr, o.data); gh != wh {
			ls.t.Fatalf("step %d: write %#x hit %v, reference %v", ls.step, o.addr, gh, wh)
		}
	}
	if g, w := ls.got.Footprint(), ls.want.Footprint(); g != w {
		ls.t.Fatalf("step %d: footprint %+v, reference %+v", ls.step, g, w)
	}
	if g, w := ls.got.Stats(), ls.want.stats; g != w {
		ls.t.Fatalf("step %d: stats %+v, reference %+v", ls.step, g, w)
	}
}

func (ls *lockstep) run(ops []op) {
	ls.t.Helper()
	for _, o := range ops {
		ls.apply(o)
	}
	ls.finish()
}

// finish compares the backing stores and the candidate index itself:
// every word must list the same tags in the same order, so lazy cleanup,
// truncation and the append cap agree entry by entry, not just in the
// costs they happened to produce.
func (ls *lockstep) finish() {
	ls.t.Helper()
	if g, w := ls.gotMem.Stats(), ls.wantMem.Stats(); g != w {
		ls.t.Fatalf("backing-store stats %+v, reference %+v", g, w)
	}
	if !memory.PagesEqual(ls.gotMem, ls.wantMem) {
		ls.t.Fatal("backing-store contents differ from the reference")
	}
	var words []uint64
	for w, ids := range ls.want.idx {
		if len(ids) > 0 { // the reference's map also keeps keys its scans emptied
			words = append(words, w)
		}
	}
	slices.Sort(words)
	lists := len(words)
	for _, w := range words {
		ids := ls.want.idx[w]
		got := ls.got.words.list(w)
		if len(got) != len(ids) {
			ls.t.Fatalf("word %#x lists %d tags, reference %d", w, len(got), len(ids))
		}
		for k, r := range got {
			if id := int(r & ls.got.idMask); id != ids[k] {
				ls.t.Fatalf("word %#x entry %d names tag %d, reference %d", w, k, id, ids[k])
			}
		}
	}
	for _, sl := range ls.got.words.slots {
		if sl.n > 0 {
			lists--
		}
	}
	if lists != 0 {
		ls.t.Fatalf("index holds %d more non-empty lists than the reference", -lists)
	}
}

// lineOf builds a line from up to eight words (the rest zero).
func lineOf(words ...uint64) line.Line {
	var l line.Line
	for i, w := range words {
		l.SetWord(i, w)
	}
	return l
}

func randomLine(rng *xrand.Rand) line.Line {
	var l line.Line
	for i := 0; i < line.WordsPerLine; i++ {
		l.SetWord(i, rng.Uint64())
	}
	return l
}

// nearLine returns base with a few random bytes changed.
func nearLine(rng *xrand.Rand, base line.Line, maxBytes int) line.Line {
	for k := rng.Intn(maxBytes + 1); k > 0; k-- {
		base[rng.Intn(line.Size)] = byte(rng.Uint64())
	}
	return base
}

func addrOf(i int) line.Addr { return line.Addr(i) * line.Size }

// mixedOps reads and writes n times over lines addresses: reads of lines
// whose backing content came from gen, and writes of gen's lines.
func mixedOps(rng *xrand.Rand, n, lines int, writeFrac float64, gen func(i int) line.Line) []op {
	ops := make([]op, 0, n+lines)
	for i := 0; i < lines; i++ {
		ops = append(ops, op{kind: opPoke, addr: addrOf(i), data: gen(i)})
	}
	for k := 0; k < n; k++ {
		a := rng.Intn(lines)
		if rng.Bool(writeFrac) {
			ops = append(ops, op{kind: opWrite, addr: addrOf(a), data: gen(a)})
		} else {
			ops = append(ops, op{kind: opRead, addr: addrOf(a)})
		}
	}
	return ops
}

// TestIdealMatchesReference drives the optimized cache and the reference
// over streams that each target one quirk of the search, and checks the
// reference saw that quirk happen.
func TestIdealMatchesReference(t *testing.T) {
	small := Config{TagEntries: 1024, TagWays: 8, DataBytes: 1 << 20, Seed: 7}
	cases := []struct {
		name string
		cfg  Config
		ops  func(rng *xrand.Rand) []op
		hit  func(q refQuirks) bool // the quirk the stream must exercise
	}{
		{"all-zero lines", small, func(rng *xrand.Rand) []op {
			return mixedOps(rng, 3000, 600, 0.4, func(i int) line.Line {
				if rng.Bool(0.1) {
					return lineOf(0, 0, 0, rng.Uint64n(4)) // mostly-zero neighbours
				}
				return line.Line{}
			})
		}, func(q refQuirks) bool { return q.capped > 0 && q.earlyExits > 0 }},
		{"one word in all eight positions", small, func(rng *xrand.Rand) []op {
			return mixedOps(rng, 3000, 700, 0.3, func(i int) line.Line {
				w := 0x0101010101010101 * (1 + rng.Uint64n(3))
				l := lineOf(w, w, w, w, w, w, w, w)
				if rng.Bool(0.5) {
					l[rng.Intn(line.Size)] ^= 0x40
				}
				return l
			})
		}, func(q refQuirks) bool { return q.breaks > 0 && q.earlyExits > 0 }},
		{"word shared by more than 192 lines", small, func(rng *xrand.Rand) []op {
			return mixedOps(rng, 4000, 900, 0.3, func(i int) line.Line {
				return lineOf(0xaaaa, 0xbbbb, 0xcccc, rng.Uint64(), rng.Uint64(), rng.Uint64(), rng.Uint64(), uint64(i))
			})
		}, func(q refQuirks) bool { return q.capped > 0 && q.breaks > 0 }},
		{"write hits that keep or change words", small, func(rng *xrand.Rand) []op {
			base := make([]line.Line, 300)
			for i := range base {
				base[i] = randomLine(rng)
				base[i].SetWord(0, uint64(i%7))
			}
			return mixedOps(rng, 5000, len(base), 0.7, func(i int) line.Line {
				switch rng.Intn(3) {
				case 0: // keep every word but one
					base[i].SetWord(1+rng.Intn(7), rng.Uint64n(16))
				case 1: // change every word
					base[i] = randomLine(rng)
				}
				return base[i] // case 2: rewrite identical data
			})
		}, func(q refQuirks) bool { return q.staleDropped > 0 }},
		{"clock budget evictions", Config{TagEntries: 1024, TagWays: 8, DataBytes: 4096, Seed: 9}, func(rng *xrand.Rand) []op {
			protos := []line.Line{randomLine(rng), randomLine(rng), randomLine(rng)}
			return mixedOps(rng, 4000, 1500, 0.5, func(i int) line.Line {
				if rng.Bool(0.5) {
					return randomLine(rng)
				}
				return nearLine(rng, protos[rng.Intn(len(protos))], 12)
			})
		}, func(q refQuirks) bool { return q.staleDropped > 0 }},
		{"random probes hit the zeroed new tag", Config{TagEntries: 128, TagWays: 8, DataBytes: 1024, Seed: 3}, func(rng *xrand.Rand) []op {
			return mixedOps(rng, 4000, 512, 0.4, func(i int) line.Line {
				// A zero word makes a stale reference to the new tag live
				// while it holds the zero line, including when a budget
				// eviction had invalidated the tag.
				l := randomLine(rng)
				l.SetWord(0, 0)
				if rng.Bool(0.3) {
					l.SetWord(5, 0)
				}
				return l
			})
		}, func(q refQuirks) bool { return q.freshProbes > 0 && q.freshRevived > 0 }},
		{"exact duplicates", small, func(rng *xrand.Rand) []op {
			protos := make([]line.Line, 12)
			for i := range protos {
				protos[i] = randomLine(rng)
			}
			return mixedOps(rng, 3000, 800, 0.3, func(i int) line.Line {
				return protos[rng.Intn(len(protos))]
			})
		}, func(q refQuirks) bool { return q.earlyExits > 0 }},
		{"mixed", Config{TagEntries: 256, TagWays: 4, DataBytes: 3000, Seed: 11}, func(rng *xrand.Rand) []op {
			protos := []line.Line{randomLine(rng), lineOf(1, 2, 3, 4), {}}
			return mixedOps(rng, 6000, 1200, 0.4, func(i int) line.Line {
				return nearLine(rng, protos[rng.Intn(len(protos))], 20)
			})
		}, func(q refQuirks) bool { return q.staleDropped > 0 && q.earlyExits > 0 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ls := newLockstep(t, c.cfg)
			ls.run(c.ops(xrand.New(uint64(len(c.name)))))
			if q := ls.want.hits; !c.hit(q) {
				t.Fatalf("stream missed its target quirk: %+v", q)
			}
		})
	}
}

// fuzzLine maps one byte to a line built from a small word palette, so
// fuzz streams share words, repeat lines exactly and contain zero lines.
func fuzzLine(b byte) line.Line {
	palette := [...]uint64{0, 0, 1, 0xffffffffffffffff, 0x00ff00ff00ff00ff, 0xdeadbeef, 0x0101010101010101}
	rng := xrand.New(uint64(b))
	var l line.Line
	for i := 0; i < line.WordsPerLine; i++ {
		if b&0x80 != 0 && i == int(b%8) {
			l.SetWord(i, rng.Uint64())
			continue
		}
		l.SetWord(i, palette[rng.Intn(len(palette))])
	}
	return l
}

// FuzzIdealMatchesReference decodes fuzz bytes into an operation stream —
// three bytes an op: kind and address high bits, address low bits, line
// pattern — and runs the lockstep comparison over a small, tightly
// budgeted cache where random probes often land on fresh tags.
func FuzzIdealMatchesReference(f *testing.F) {
	f.Add([]byte{0, 1, 2, 2, 1, 3, 2, 1, 0x83, 0, 1, 2})
	seed := make([]byte, 3*600)
	rng := xrand.New(1)
	for i := range seed {
		seed[i] = byte(rng.Uint64())
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*4096 {
			data = data[:3*4096]
		}
		ls := newLockstep(t, Config{TagEntries: 128, TagWays: 8, DataBytes: 1536, Seed: 2})
		for ; len(data) >= 3; data = data[3:] {
			o := op{addr: addrOf(int(data[0]>>2)<<8 | int(data[1])), data: fuzzLine(data[2])}
			switch data[0] & 3 {
			case 0, 1:
				o.kind = opRead
			case 2:
				o.kind = opWrite
			default:
				o.kind = opPoke
			}
			ls.apply(o)
		}
		ls.finish()
	})
}

// TestSignatureBound: the signature bound never exceeds DiffBytes, and
// equals the count of bytes whose parity or two lowest bits differ — on
// random pairs, and on adversarial pairs whose differing bytes flip an
// even number of bits above bit 1 (the bound cannot see them at all).
func TestSignatureBound(t *testing.T) {
	check := func(a, b line.Line) bool {
		sa, sb := lineSignature(&a), lineSignature(&b)
		want := 0
		for i := range a {
			if bits.OnesCount8(a[i]^b[i])&1 != 0 || (a[i]^b[i])&3 != 0 {
				want++
			}
		}
		bound := sa.bound(&sb)
		return bound == want && bound <= line.DiffBytes(&a, &b)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	invisible := []byte{0x0c, 0x14, 0x18, 0x24, 0x30, 0x3c, 0x60, 0x84, 0xa0, 0xc0, 0xfc}
	if err := quick.Check(func(a line.Line, pick [line.Size]uint8, mask uint64) bool {
		b := a
		for i := range b {
			if mask>>i&1 != 0 {
				b[i] ^= invisible[int(pick[i])%len(invisible)]
			}
		}
		return lineSignature(&a) == lineSignature(&b) && check(a, b) &&
			line.DiffBytes(&a, &b) == bits.OnesCount64(mask)
	}, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotModelsMatchReference runs Figs. 1 and 2's snapshot models
// against the map-based index over snapshots with shared words, long
// lists, exact duplicates and zero lines.
func TestSnapshotModelsMatchReference(t *testing.T) {
	rng := xrand.New(21)
	protos := []line.Line{randomLine(rng), lineOf(7, 7, 7, 7, 7, 7, 7, 7), lineOf(0, 1)}
	for _, n := range []int{0, 1, 2, 50, 700} {
		lines := make([]line.Line, n)
		for i := range lines {
			switch rng.Intn(4) {
			case 0:
				lines[i] = randomLine(rng)
			case 1:
				lines[i] = protos[rng.Intn(len(protos))]
			case 2:
				lines[i] = nearLine(rng, protos[rng.Intn(len(protos))], 16)
			}
		}
		if g, w := DiffSnapshot(lines), refDiffSnapshot(lines); g != w {
			t.Fatalf("%d lines: DiffSnapshot %v, reference %v", n, g, w)
		}
		if g, w := DiffCDF(lines), refDiffCDF(lines); g != w {
			t.Fatalf("%d lines: DiffCDF %v, reference %v", n, g, w)
		}
	}
}
