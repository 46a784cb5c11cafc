// Package scheme is the compression-scheme registry: the single place a
// cache design plugs into the repository. A design registers once —
// construction by name, the codec hook that persists its release
// snapshot in the artifact cache, the config fragment folded into run
// content keys, and an optional report summary — and the harness, the
// artifact codec, and the campaign figures all pick it up from here.
// Registration order is report order: experiment tables emit one column
// per registered scheme, so new schemes append columns and existing
// columns keep their bytes.
package scheme

import (
	"fmt"

	"repro/internal/llc"
	"repro/internal/memory"
)

// Decoder is the reader a codec hook decodes its snapshot through. It is
// implemented by the artifact package's sticky-error run decoder: after
// the first failure every later read returns zero values and Err()
// reports the underlying corruption, so hooks read fields linearly
// without per-field error plumbing.
type Decoder interface {
	// Uvarint reads one varint counter; what names the field in errors.
	Uvarint(what string) uint64
	// Count reads a uvarint that sizes a following allocation, failing
	// the decode when it exceeds max.
	Count(what string, max uint64) int
	// F64 reads a fixed 8-byte IEEE bit pattern (exact, canonical).
	F64(what string) float64
	// Bool reads one strict 0/1 byte.
	Bool(what string) bool
	// Str reads a length-prefixed string.
	Str(what string) string
	// Bytes reads exactly n raw bytes; the returned slice aliases the
	// decode buffer and must be copied before the hook returns.
	Bytes(what string, n int) []byte
	// Fail marks the decode corrupt (first failure sticks).
	Fail(format string, args ...any)
	// Err reports the sticky decode error, nil while the decode is good.
	Err() error
}

// ExtraCodec persists one design's release-snapshot type (its
// llc.ExtraSnapshot implementation) in the artifact cache's run-output
// section. Encodings must be canonical — decode∘encode is the identity
// on accepted payloads (the codec fuzz contract) — and every counter a
// uvarint, every float a fixed 8-byte bit pattern, every bool one strict
// byte. Designs sharing a snapshot type share one codec value: Baseline
// and 2x Baseline, and every design that releases llc.Counters.
type ExtraCodec struct {
	// Tag is the snapshot's unique wire tag. Tag 0 is reserved for a nil
	// Extra; adding a tag requires an artifact.RunOutputVersion bump
	// (which turns every cached run into a clean miss).
	Tag uint8
	// Matches reports whether x is this codec's snapshot type. Encode
	// dispatch runs on the snapshot's Go type, never on the design name:
	// snapshots must round-trip even when carried by synthetic or
	// renamed designs.
	Matches func(x llc.ExtraSnapshot) bool
	// Encode appends x to dst and returns the extended slice. Only
	// called with x for which Matches(x) is true.
	Encode func(dst []byte, x llc.ExtraSnapshot) []byte
	// Decode reads one snapshot back. On corrupt input it calls d.Fail
	// and returns what it has; the caller discards partial results when
	// d.Err() is non-nil.
	Decode func(d Decoder) llc.ExtraSnapshot
	// Equal deep-compares two snapshots of this codec's type, bit-exact
	// on floats (the -cache-verify path). Only called when Matches is
	// true for both.
	Equal func(a, b llc.ExtraSnapshot) bool
}

// Scheme describes one registered cache design.
type Scheme struct {
	// Name is the design's report name, unique across the registry and
	// equal to what the built cache's Name() returns.
	Name string
	// Build constructs the design over a fresh backing store at its
	// default (paper) configuration.
	Build func(mem *memory.Store) (llc.Cache, error)
	// Codec persists the design's release snapshot, or nil when the
	// design releases no Extra (the snapshot's Extra is always nil and
	// the codec writes the generic nil tag).
	Codec *ExtraCodec
	// AppendConfigKey folds the design's default configuration into the
	// run content key, so cached runs never alias across a silent
	// default-config change. Nil for designs whose effective config is
	// already keyed elsewhere (Thesaurus: the harness passes the
	// normalized config into the key explicitly).
	AppendConfigKey func(dst []byte) []byte
	// Summary renders a one-line design-specific report suffix from the
	// release snapshot, or "" when there is nothing to add. Nil means no
	// summary.
	Summary func(x llc.ExtraSnapshot) string
}

// registry state: registration happens in this package's init (see
// builtin.go) and is read-only afterwards, so no locking is needed.
var (
	schemes []Scheme
	byName  = map[string]int{}
	byTag   = map[uint8]*ExtraCodec{}
	// codecs lists the distinct codecs in registration order, the
	// deterministic iteration order for type-dispatch (byTag is lookup
	// only — never ranged).
	codecs []*ExtraCodec
)

// Register adds s to the registry. It panics on duplicate names, reused
// codec tags, tag 0, or a missing builder — all programmer errors caught
// at init.
func Register(s Scheme) {
	if s.Name == "" || s.Build == nil {
		panic("scheme: Register needs a name and a builder")
	}
	if _, dup := byName[s.Name]; dup {
		panic(fmt.Sprintf("scheme: duplicate design %q", s.Name))
	}
	if c := s.Codec; c != nil {
		if c.Tag == 0 {
			panic(fmt.Sprintf("scheme: design %q uses reserved tag 0", s.Name))
		}
		if c.Matches == nil || c.Encode == nil || c.Decode == nil || c.Equal == nil {
			panic(fmt.Sprintf("scheme: design %q has an incomplete codec", s.Name))
		}
		if prev, ok := byTag[c.Tag]; ok {
			if prev != c {
				panic(fmt.Sprintf("scheme: design %q reuses tag %d", s.Name, c.Tag))
			}
		} else {
			byTag[c.Tag] = c
			codecs = append(codecs, c)
		}
	}
	byName[s.Name] = len(schemes)
	schemes = append(schemes, s)
}

// Names returns the registered design names in registration (report)
// order. The slice is a copy; callers may keep or reorder it.
func Names() []string {
	out := make([]string, len(schemes))
	for i := range schemes {
		out[i] = schemes[i].Name
	}
	return out
}

// Lookup returns the named scheme.
func Lookup(name string) (Scheme, bool) {
	i, ok := byName[name]
	if !ok {
		return Scheme{}, false
	}
	return schemes[i], true
}

// All returns every registered scheme in registration order. The slice
// is a copy.
func All() []Scheme {
	return append([]Scheme(nil), schemes...)
}

// Build constructs the named design over mem at its default
// configuration.
func Build(name string, mem *memory.Store) (llc.Cache, error) {
	s, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("harness: unknown design %q", name)
	}
	return s.Build(mem)
}

// CodecByTag returns the codec that owns a wire tag (decode dispatch).
func CodecByTag(tag uint8) (*ExtraCodec, bool) {
	c, ok := byTag[tag]
	return c, ok
}

// CodecFor returns the codec whose snapshot type x is (encode and
// equality dispatch). It returns false for nil and for snapshot types no
// registered design owns.
func CodecFor(x llc.ExtraSnapshot) (*ExtraCodec, bool) {
	if x == nil {
		return nil, false
	}
	for _, c := range codecs {
		if c.Matches(x) {
			return c, true
		}
	}
	return nil, false
}

// Codecs returns the distinct registered codecs in registration order.
// The slice is a copy.
func Codecs() []*ExtraCodec {
	return append([]*ExtraCodec(nil), codecs...)
}
