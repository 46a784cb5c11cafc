// Registry-completeness gate: every registered design must construct by
// name, report the name it registered under, and — when it releases an
// Extra snapshot — carry a complete codec whose encode/decode round-trip
// is the identity. `make registry-check` runs these checks and the
// replay-exactness test (replay_test.go); it is part of `make ci` so a
// half-wired design cannot land.
package scheme_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/harness"
	"repro/internal/line"
	"repro/internal/memory"
	"repro/internal/scheme"
)

// reportOrder pins the registration (= report column) order. Existing
// columns keep their position; new designs append.
var reportOrder = []string{
	"Baseline", "Dedup", "BDI", "Thesaurus", "Ideal", "2x Baseline",
	"CPack", "DISH",
}

func TestRegistryOrderAndHarnessAgreement(t *testing.T) {
	if got := scheme.Names(); !reflect.DeepEqual(got, reportOrder) {
		t.Fatalf("registered schemes %v, want %v", got, reportOrder)
	}
	if !reflect.DeepEqual(harness.Designs, scheme.Names()) {
		t.Fatalf("harness.Designs %v diverged from registry %v",
			harness.Designs, scheme.Names())
	}
}

func TestBuildUnknownDesign(t *testing.T) {
	if _, err := scheme.Build("NoSuchDesign", memory.NewStore()); err == nil {
		t.Fatal("unknown design built without error")
	}
}

// exercise runs a little traffic through c so its release snapshot has
// non-trivial counters to round-trip.
func exercise(c interface {
	Write(line.Addr, line.Line) bool
	Read(line.Addr) (line.Line, bool)
}) {
	for i := 0; i < 64; i++ {
		var l line.Line
		l.SetWord(0, uint64(i)*0x9e3779b97f4a7c15)
		l.SetWord(3, uint64(i))
		c.Write(line.Addr(i)*line.Size, l)
	}
	for i := 0; i < 64; i += 3 {
		c.Read(line.Addr(i) * line.Size)
	}
}

// testDecoder mirrors the artifact run decoder's wire primitives
// (uvarint counters, 8-byte little-endian float bits, strict 0/1 bools,
// length-prefixed strings) so codec round-trips can be checked without
// importing the artifact package.
type testDecoder struct {
	data []byte
	err  error
}

func (d *testDecoder) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("decode: "+format, args...)
	}
}

func (d *testDecoder) Err() error { return d.err }

func (d *testDecoder) Uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data)
	if n <= 0 {
		d.Fail("%s", what)
		return 0
	}
	d.data = d.data[n:]
	return v
}

func (d *testDecoder) Count(what string, max uint64) int {
	v := d.Uvarint(what)
	if d.err == nil && v > max {
		d.Fail("%s %d exceeds bound %d", what, v, max)
	}
	if d.err != nil {
		return 0
	}
	return int(v)
}

func (d *testDecoder) F64(what string) float64 {
	if d.err != nil {
		return 0
	}
	if len(d.data) < 8 {
		d.Fail("%s", what)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.data))
	d.data = d.data[8:]
	return v
}

func (d *testDecoder) Bool(what string) bool {
	if d.err != nil {
		return false
	}
	if len(d.data) < 1 || d.data[0] > 1 {
		d.Fail("%s", what)
		return false
	}
	b := d.data[0] == 1
	d.data = d.data[1:]
	return b
}

func (d *testDecoder) Str(what string) string {
	n := d.Count(what+" length", 1<<20)
	if d.err != nil {
		return ""
	}
	if len(d.data) < n {
		d.Fail("truncated %s", what)
		return ""
	}
	s := string(d.data[:n])
	d.data = d.data[n:]
	return s
}

func (d *testDecoder) Bytes(what string, n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || len(d.data) < n {
		d.Fail("truncated %s", what)
		return nil
	}
	b := d.data[:n]
	d.data = d.data[n:]
	return b
}

var _ scheme.Decoder = (*testDecoder)(nil)

// TestEverySchemeIsComplete is the registry-completeness check: build
// each design by name, confirm it reports its registered name, release
// it, and require the snapshot to round-trip through the design's codec.
func TestEverySchemeIsComplete(t *testing.T) {
	for _, s := range scheme.All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			c, err := scheme.Build(s.Name, memory.NewStore())
			if err != nil {
				t.Fatalf("Build: %v", err)
			}
			if c.Name() != s.Name {
				t.Fatalf("cache names itself %q, registered as %q", c.Name(), s.Name)
			}
			exercise(c)
			snap := c.Release()
			if snap.Design != s.Name {
				t.Fatalf("snapshot design %q, want %q", snap.Design, s.Name)
			}
			if snap.Extra == nil {
				if s.Codec != nil {
					t.Fatalf("codec registered but release Extra is nil")
				}
				return
			}
			if s.Codec == nil {
				t.Fatalf("release Extra %T has no codec: cached runs cannot persist it", snap.Extra)
			}
			if s.Codec.Tag == 0 || s.Codec.Matches == nil || s.Codec.Encode == nil ||
				s.Codec.Decode == nil || s.Codec.Equal == nil {
				t.Fatalf("codec incomplete: %+v", s.Codec)
			}
			if !s.Codec.Matches(snap.Extra) {
				t.Fatalf("codec does not match its own design's snapshot %T", snap.Extra)
			}
			got, ok := scheme.CodecFor(snap.Extra)
			if !ok || got != s.Codec {
				t.Fatalf("CodecFor dispatched to a different codec")
			}
			if byTag, ok := scheme.CodecByTag(s.Codec.Tag); !ok || byTag != s.Codec {
				t.Fatalf("CodecByTag(%d) does not return this codec", s.Codec.Tag)
			}
			if !s.Codec.Equal(snap.Extra, snap.Extra.Clone()) {
				t.Fatalf("snapshot not Equal to its own Clone")
			}
			enc := s.Codec.Encode(nil, snap.Extra)
			d := &testDecoder{data: enc}
			dec := s.Codec.Decode(d)
			if d.Err() != nil {
				t.Fatalf("decode of own encoding failed: %v", d.Err())
			}
			if len(d.data) != 0 {
				t.Fatalf("decode left %d trailing bytes", len(d.data))
			}
			if !s.Codec.Equal(snap.Extra, dec) {
				t.Fatalf("decode(encode(x)) != x for %T", snap.Extra)
			}
		})
	}
}

// TestSummaryHooksRender: a Summary hook must accept its own design's
// snapshot and render a non-empty line.
func TestSummaryHooksRender(t *testing.T) {
	for _, s := range scheme.All() {
		if s.Summary == nil {
			continue
		}
		c, err := scheme.Build(s.Name, memory.NewStore())
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		exercise(c)
		snap := c.Release()
		if out := s.Summary(snap.Extra); out == "" {
			t.Errorf("%s: Summary rendered nothing", s.Name)
		}
	}
}
