package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"hash/crc32"
	"testing"

	"repro/internal/line"
	"repro/internal/sim"
	"repro/internal/workload"
	"repro/internal/xrand"
)

// patchCRC recomputes a mutated artifact's checksum so only the intended
// field differs from a genuine encoding.
func patchCRC(data []byte) {
	sum := crc32.Checksum(data[:len(data)-8], crc32.MakeTable(crc32.Castagnoli))
	binary.LittleEndian.PutUint32(data[len(data)-8:], sum)
}

// synthRecorded builds a recording with the statistical texture the codec
// exploits: clustered addresses (small deltas, some large jumps), heavy
// line-content reuse, and occasional zero gaps.
func synthRecorded(seed uint64, n int) *sim.Recorded {
	rng := xrand.New(seed)
	pool := make([]line.Line, 1+rng.Intn(40))
	for i := range pool {
		for j := 0; j < line.Size; j += 8 {
			pool[i][j] = byte(rng.Uint32())
		}
	}
	r := &sim.Recorded{
		Instructions: rng.Uint64n(1 << 40),
		CoreAccesses: rng.Uint64n(1 << 30),
		L1Hits:       rng.Uint64n(1 << 30),
		L2Hits:       rng.Uint64n(1 << 20),
	}
	addr := line.Addr(rng.Uint64n(1 << 40)).LineAddr()
	seen := map[line.Addr]bool{}
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0:
			addr += line.Size
		case 1:
			addr -= line.Addr(line.Size * (1 + rng.Intn(8)))
		case 2:
			addr = line.Addr(rng.Uint64n(1 << 44)).LineAddr()
		case 3: // repeat addr
		}
		seen[addr] = true
		r.Events = append(r.Events, sim.Event{
			Kind:   sim.EventKind(rng.Intn(2)),
			Addr:   addr,
			Data:   pool[rng.Intn(len(pool))],
			Instrs: rng.Uint64n(1 << uint(rng.Intn(20))),
		})
	}
	r.UniqueLines = len(seen)
	return r
}

func TestCodecRoundtrip(t *testing.T) {
	cases := []struct {
		name string
		f    File
	}{
		{"empty recorded", File{Recorded: &sim.Recorded{}}},
		{"recorded only", File{Recorded: synthRecorded(1, 500)}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			enc := Encode(nil, &c.f)
			got, err := Decode(enc)
			if err != nil {
				t.Fatal(err)
			}
			if (got.Recorded == nil) != (c.f.Recorded == nil) {
				t.Fatal("recorded presence changed")
			}
			if got.Recorded != nil && !RecordedEqual(got.Recorded, c.f.Recorded) {
				t.Fatal("decoded recording differs")
			}
			// Canonical: re-encoding the decoded file is byte-identical.
			if string(Encode(nil, got)) != string(enc) {
				t.Fatal("re-encoding differs")
			}
		})
	}
}

// TestCodecRoundtripRealRecording exercises the codec against an actual
// sim.Record output rather than synthetic events.
func TestCodecRoundtripRealRecording(t *testing.T) {
	p, err := workload.ProfileByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	g := p.Generate(20000)
	rec := sim.Record(g.Stream, sim.DefaultSystem(), g.Image)
	enc := Encode(nil, &File{Recorded: rec})
	got, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !RecordedEqual(got.Recorded, rec) {
		t.Fatal("decoded recording differs from sim.Record output")
	}
}

// TestRecordedWireFormatPinned holds the SHA-256 of the artifact encoding
// of eight synthetic recordings and of a real mcf recording. Recordings
// warmed by an earlier build stay hits only while these digests hold. A
// deliberate format change bumps Version and refreshes the digests in the
// same change. The synthetic recordings and the mcf workload draw from
// xrand, so the digests also pin its streams.
func TestRecordedWireFormatPinned(t *testing.T) {
	want := []string{
		"c8296394daee06cc45fd8da4bfed5dd4642c2e23acb921000e0df1c18a7a5144",
		"406b929b00f774cc02ee551b99dbf93197679c3d54b645e4f72febb1bb84da95",
		"6ee963d508671adb480830b41ffe073976cd155dca1c995f686f771e36206629",
		"d2c1df01fbde5c583972acb3014bf5465ac3a94231c320cc434341e466dffc68",
		"baa0deb3894eccb8d1dee2843459542d1ffe8a43163300eb61fc87858b67ea9b",
		"3e6863e1df8bfd42a6745f02dbafcb48eb91d673a5e547bb42d0438f02b3a0f9",
		"71daadbd29a59f49e0290bdce8db5d9d602f1309af6e3da53c18bb03eeef5342",
		"be2efd57c05827469e705aef2e95404a8817d59244659a18cd8e14f3921b177b",
	}
	for seed, w := range want {
		sum := sha256.Sum256(Encode(nil, &File{Recorded: synthRecorded(uint64(seed), 1000)}))
		if got := hex.EncodeToString(sum[:]); got != w {
			t.Errorf("synthRecorded seed %d: encoding digest %s, want %s", seed, got, w)
		}
	}
	p, err := workload.ProfileByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	g := p.Generate(5000)
	sum := sha256.Sum256(Encode(nil, &File{Recorded: sim.Record(g.Stream, sim.DefaultSystem(), g.Image)}))
	if got, w := hex.EncodeToString(sum[:]), "afe2d7a11b10e6e48f1469bd5d8397fc9e96a2b1baeb140c51a654454edd58de"; got != w {
		t.Errorf("mcf at 5000 accesses: encoding digest %s, want %s", got, w)
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	enc := Encode(nil, &File{Recorded: synthRecorded(5, 300)})
	for cut := 0; cut < len(enc); cut += 131 {
		if _, err := Decode(enc[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		} else if errors.Is(err, ErrVersionSkew) {
			t.Fatalf("truncation to %d bytes reported as version skew", cut)
		}
	}
}

func TestDecodeRejectsBitFlips(t *testing.T) {
	enc := Encode(nil, &File{Recorded: synthRecorded(7, 200)})
	// Flip one bit at a spread of positions covering header, payload and
	// footer; every flip must be rejected, and none may panic.
	for pos := 0; pos < len(enc); pos += 61 {
		for bit := 0; bit < 8; bit += 3 {
			mut := append([]byte(nil), enc...)
			mut[pos] ^= 1 << bit
			if _, err := Decode(mut); err == nil {
				t.Fatalf("bit flip at byte %d bit %d accepted", pos, bit)
			}
		}
	}
}

func TestDecodeVersionSkew(t *testing.T) {
	enc := Encode(nil, &File{Recorded: synthRecorded(8, 50)})
	// Rewrite the version field and fix up the checksum so the file is
	// structurally valid — exactly what a future codec would produce.
	mut := append([]byte(nil), enc...)
	mut[4] = byte(Version + 1)
	patchCRC(mut)
	_, err := Decode(mut)
	if !errors.Is(err, ErrVersionSkew) {
		t.Fatalf("version-bumped artifact: got %v, want ErrVersionSkew", err)
	}
}

func BenchmarkEncodeRecorded(b *testing.B) {
	rec := synthRecorded(9, 10000)
	buf := Encode(nil, &File{Recorded: rec})
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = Encode(buf[:0], &File{Recorded: rec})
	}
}

func BenchmarkDecodeRecorded(b *testing.B) {
	enc := Encode(nil, &File{Recorded: synthRecorded(10, 10000)})
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}
