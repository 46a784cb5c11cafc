package thesaurus

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/line"
	"repro/internal/memory"
	"repro/internal/xrand"
)

// clusteredLine fabricates content that exercises every encoding family:
// members of a few synthetic clusters, sparse lines, zero lines, and
// incompressible noise.
func clusteredLine(rng *xrand.Rand, protos []line.Line) line.Line {
	switch rng.Intn(8) {
	case 0:
		return line.Zero
	case 1: // sparse (0+diff territory)
		var l line.Line
		for j, n := 0, 1+rng.Intn(5); j < n; j++ {
			l[rng.Intn(line.Size)] = byte(rng.Uint32())
		}
		return l
	case 2: // noise (raw territory)
		var l line.Line
		for w := 0; w < line.WordsPerLine; w++ {
			l.SetWord(w, rng.Uint64())
		}
		return l
	default: // cluster member: proto plus a few byte flips
		l := protos[rng.Intn(len(protos))]
		for j, n := 0, rng.Intn(6); j < n; j++ {
			l[rng.Intn(line.Size)] ^= byte(1 + rng.Intn(255))
		}
		return l
	}
}

// checkFingerprintInvariant asserts that every resident placed tag's
// memoized fingerprint equals a from-scratch projection of its decoded
// content — the exactness contract the incremental write-hit fast path
// (changedVsStored + FingerprintDelta) must preserve.
func checkFingerprintInvariant(t *testing.T, c *Cache) {
	t.Helper()
	c.tags.ForEach(func(_ int, e *cache.Entry[tagPayload]) {
		if !e.Payload.fpValid {
			return
		}
		data := c.decodeEntry(e)
		if want := c.hasher.Fingerprint(&data); e.Payload.fp != want {
			t.Fatalf("addr %#x (%v): memoized fp %#x, content fp %#x",
				e.Addr, e.Payload.fmt, e.Payload.fp, want)
		}
	})
}

// TestClusteredStreamInvariants drives a mixed read/write stream of
// clustered, sparse, zero and noise lines over 96 lines, so most writes
// are hits that re-encode through the incremental fingerprint path and
// move lines between clusters and formats. Every read must return the
// last value written, the structural invariants must hold every 1501
// operations, and every memoized fingerprint must match its line's
// content.
func TestClusteredStreamInvariants(t *testing.T) {
	mem := memory.NewStore()
	c := MustNew(smallConfig(), mem)

	protoRng := xrand.New(0xc1a5)
	protos := make([]line.Line, 4)
	for i := range protos {
		for w := 0; w < line.WordsPerLine; w++ {
			protos[i].SetWord(w, protoRng.Uint64())
		}
	}

	rng := xrand.New(0x0b5e53)
	addrs := make([]line.Addr, 96)
	for i := range addrs {
		addrs[i] = line.Addr(i * line.Size)
	}
	// A line never written reads as the store's zeros, the map's zero
	// value.
	ref := make(map[line.Addr]line.Line, len(addrs))
	read := func(op int, addr line.Addr) {
		t.Helper()
		if got, _ := c.Read(addr); got != ref[addr] {
			t.Fatalf("op %d: Read(%#x) returned other data than the last write", op, addr)
		}
	}
	for op := 0; op < 6000; op++ {
		addr := addrs[rng.Intn(len(addrs))]
		kind := rng.Intn(10)
		data := clusteredLine(rng, protos)
		if kind < 5 {
			read(op, addr)
		} else {
			c.Write(addr, data)
			ref[addr] = data
		}
		if op%1501 == 0 {
			if err := c.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", op, err)
			}
			checkFingerprintInvariant(t, c)
		}
	}

	for _, a := range addrs {
		read(-1, a)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	checkFingerprintInvariant(t, c)
	if x := c.Extra(); x.Reencodes == 0 {
		t.Fatalf("no write hit re-encoded: %+v", x)
	}
}
