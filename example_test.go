package repro_test

import (
	"fmt"

	"repro"
)

// ExampleEncode shows the base+diff encoding at the heart of Thesaurus:
// a near-duplicate line is stored as a 64-bit mask plus the differing
// bytes (Fig. 7 of the paper).
func ExampleEncode() {
	var base repro.Line
	for i := range base {
		base[i] = byte(i)
	}
	member := base
	member[10] = 0xAA
	member[40] = 0xBB

	enc := repro.Encode(&member, &base)
	fmt.Println("format:", enc.Format)
	fmt.Println("bytes:", enc.SizeBytes())
	fmt.Println("segments:", enc.Segments())

	decoded, _ := repro.Decode(enc, &base)
	fmt.Println("round trip ok:", decoded == member)
	// Output:
	// format: B+D
	// bytes: 10
	// segments: 2
	// round trip ok: true
}

// ExampleNewLSH demonstrates the locality property: a nudged line keeps
// its cluster fingerprint, an unrelated line does not.
func ExampleNewLSH() {
	h, _ := repro.NewLSH(repro.DefaultLSHConfig())

	var proto repro.Line
	for i := range proto {
		proto[i] = byte(i * 13)
	}
	near := proto
	near[5] += 2 // a small value change in one byte

	var far repro.Line
	for i := range far {
		far[i] = byte(200 - i*7)
	}

	fmt.Println("near keeps fingerprint:", h.Fingerprint(&near) == h.Fingerprint(&proto))
	fmt.Println("far keeps fingerprint:", h.Fingerprint(&far) == h.Fingerprint(&proto))
	// Output:
	// near keeps fingerprint: true
	// far keeps fingerprint: false
}

// ExampleMustNewCache runs a small cluster of near-duplicates through a
// Thesaurus cache and reports the effective compression.
func ExampleMustNewCache() {
	mem := repro.NewMemory()
	cache := repro.MustNewCache(repro.DefaultConfig(), mem)

	var proto repro.Line
	for i := range proto {
		proto[i] = byte(i*7 + 1)
	}
	const n = 512
	for i := 0; i < n; i++ {
		l := proto
		l[8] = byte(i) // cluster members differ in one byte
		mem.Poke(repro.Addr(i*repro.LineSize), l)
		cache.Read(repro.Addr(i * repro.LineSize))
	}

	fp := cache.Footprint()
	cache.Release()
	mem.Release()
	fmt.Println("resident lines:", fp.ResidentLines)
	fmt.Println("compresses at least 3x:", fp.CompressionRatio() > 3)
	// Output:
	// resident lines: 512
	// compresses at least 3x: true
}
