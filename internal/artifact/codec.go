// Package artifact implements the persistent, content-addressed on-disk
// cache for recordings. A recording (sim.Recorded) is a pure function of
// (profile parameters, SystemConfig geometry, trace length, codec
// version), so it is stored under a SHA-256 of exactly those inputs and
// loaded instead of re-simulated on every later run.
//
// The file format is a compact versioned binary codec:
//
//	header   16B: magic "THSA", u32 version, u32 section bitmask, u32 reserved
//	payload  sections in bitmask order (recorded, then run output)
//	footer   16B: u64 payload length, u32 CRC-32C(header+payload), u32 magic
//
// The recorded section deduplicates line contents through a first-seen
// pool (replayed traces revisit the same lines constantly), delta-encodes
// event addresses with zigzag varints, and stores counters as uvarints.
// Everything is checksummed; any decode failure surfaces as ErrCorrupt so
// callers regenerate, and a version mismatch is ErrVersionSkew — a miss,
// never an error.
package artifact

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"repro/internal/line"
	"repro/internal/sim"
)

// Version is the codec version. Bump it whenever the encoding — or the
// semantics of anything keyed under it (generator behaviour, recording
// rules) — changes; it participates in the content key, so a bump turns
// every existing artifact into a clean miss.
const Version = 1

const (
	headerMagic = 0x41534854 // "THSA" little-endian
	footerMagic = 0x5A534854 // "THSZ" little-endian
	headerLen   = 16
	footerLen   = 16

	// Bit 1 is retired (a memory-image section); a file that sets it
	// decodes as corrupt.
	sectionRecorded = 1 << 0
	sectionRun      = 1 << 2

	// maxEvents / maxPool bound decode-time allocations to what a
	// plausible artifact can hold, so a corrupt length prefix cannot
	// trigger a huge allocation before the per-item bounds checks fire.
	maxEvents = 1 << 32
	maxPool   = 1 << 30
)

// Decode failure modes.
var (
	// ErrCorrupt reports a torn, truncated, or bit-flipped artifact.
	ErrCorrupt = errors.New("artifact: corrupt")
	// ErrVersionSkew reports a structurally valid artifact written by a
	// different codec version. Callers treat it as a cache miss.
	ErrVersionSkew = errors.New("artifact: codec version skew")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// File is the decoded form of one artifact.
type File struct {
	Recorded *sim.Recorded
	// Run is a whole memoized replay result (ISSUE 8). The section
	// carries its own sub-version (RunOutputVersion) on top of the
	// container version, because its encoding mirrors snapshot struct
	// layouts that evolve independently of the recording format.
	Run *RunOutput
}

// Encode appends the artifact encoding of f onto dst.
func Encode(dst []byte, f *File) []byte {
	var sections uint32
	if f.Recorded != nil {
		sections |= sectionRecorded
	}
	if f.Run != nil {
		sections |= sectionRun
	}
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, headerMagic)
	dst = binary.LittleEndian.AppendUint32(dst, Version)
	dst = binary.LittleEndian.AppendUint32(dst, sections)
	dst = binary.LittleEndian.AppendUint32(dst, 0)
	if f.Recorded != nil {
		dst = appendRecorded(dst, f.Recorded)
	}
	if f.Run != nil {
		dst = appendRunOutput(dst, f.Run)
	}
	payloadLen := uint64(len(dst) - start - headerLen)
	dst = binary.LittleEndian.AppendUint64(dst, payloadLen)
	// The checksum covers header, payload, and the length field itself
	// (everything but the trailing crc+magic words).
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[start:], castagnoli))
	dst = binary.LittleEndian.AppendUint32(dst, footerMagic)
	return dst
}

// Decode parses one artifact. It returns ErrVersionSkew for a
// checksummed-valid file written by another codec version and ErrCorrupt
// (wrapping detail) for anything torn, truncated, or bit-flipped.
func Decode(data []byte) (*File, error) {
	if len(data) < headerLen+footerLen {
		return nil, fmt.Errorf("%w: %d bytes is shorter than header+footer", ErrCorrupt, len(data))
	}
	if binary.LittleEndian.Uint32(data) != headerMagic {
		return nil, fmt.Errorf("%w: bad header magic", ErrCorrupt)
	}
	foot := data[len(data)-footerLen:]
	if binary.LittleEndian.Uint32(foot[12:]) != footerMagic {
		return nil, fmt.Errorf("%w: bad footer magic", ErrCorrupt)
	}
	if got, want := binary.LittleEndian.Uint64(foot), uint64(len(data)-headerLen-footerLen); got != want {
		return nil, fmt.Errorf("%w: payload length %d, have %d", ErrCorrupt, got, want)
	}
	sum := crc32.Checksum(data[:len(data)-8], castagnoli)
	if sum != binary.LittleEndian.Uint32(foot[8:]) {
		return nil, fmt.Errorf("%w: checksum mismatch", ErrCorrupt)
	}
	// The checksum passed, so the bytes are what the writer produced;
	// only now is a version comparison meaningful.
	if v := binary.LittleEndian.Uint32(data[4:]); v != Version {
		return nil, fmt.Errorf("%w: file version %d, codec version %d", ErrVersionSkew, v, Version)
	}
	sections := binary.LittleEndian.Uint32(data[8:])
	if sections&^uint32(sectionRecorded|sectionRun) != 0 {
		return nil, fmt.Errorf("%w: unknown section bits %#x", ErrCorrupt, sections)
	}
	payload := data[headerLen : len(data)-footerLen]
	f := &File{}
	var err error
	if sections&sectionRecorded != 0 {
		if f.Recorded, payload, err = decodeRecorded(payload); err != nil {
			return nil, err
		}
	}
	if sections&sectionRun != 0 {
		if f.Run, payload, err = decodeRunOutput(payload); err != nil {
			return nil, err
		}
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("%w: %d trailing payload bytes", ErrCorrupt, len(payload))
	}
	return f, nil
}

// eventBytesHint is the encoded size of a typical event (three varints:
// address delta, instruction gap, pool index), the estimate appendRecorded
// sizes its buffer by.
const eventBytesHint = 8

// appendRecorded encodes one sim.Recorded. Events reference line contents
// through a first-seen pool of unique lines; addresses are zigzag deltas
// from the previous event; the pool index carries the event kind in its
// low bit. The dedup pass hashes each event's line once and keeps its
// pool index for the event loop. Indices fit a uint32: a pool that
// reached 2^32 lines would hold 256 GiB, and the decoder rejects pools
// over maxPool.
func appendRecorded(dst []byte, r *sim.Recorded) []byte {
	pool := make(map[line.Line]uint32, r.UniqueLines)
	order := make([]line.Line, 0, r.UniqueLines)
	index := make([]uint32, len(r.Events))
	for i := range r.Events {
		d := &r.Events[i].Data
		j, ok := pool[*d]
		if !ok {
			j = uint32(len(order))
			pool[*d] = j
			order = append(order, *d)
		}
		index[i] = j
	}
	// Grow once for the header, the pool and typical event varints.
	dst = slices.Grow(dst, 7*binary.MaxVarintLen64+len(order)*line.Size+len(r.Events)*eventBytesHint)
	dst = binary.AppendUvarint(dst, uint64(len(r.Events)))
	dst = binary.AppendUvarint(dst, uint64(len(order)))
	dst = binary.AppendUvarint(dst, r.Instructions)
	dst = binary.AppendUvarint(dst, r.CoreAccesses)
	dst = binary.AppendUvarint(dst, r.L1Hits)
	dst = binary.AppendUvarint(dst, r.L2Hits)
	dst = binary.AppendUvarint(dst, uint64(r.UniqueLines))
	for _, l := range order {
		dst = append(dst, l[:]...)
	}
	var prev line.Addr
	for i := range r.Events {
		e := &r.Events[i]
		delta := int64(uint64(e.Addr) - uint64(prev))
		dst = binary.AppendUvarint(dst, uint64(delta)<<1^uint64(delta>>63))
		dst = binary.AppendUvarint(dst, e.Instrs)
		dst = binary.AppendUvarint(dst, uint64(index[i])<<1|uint64(e.Kind))
		prev = e.Addr
	}
	return dst
}

// decodeRecorded parses the recorded section, returning the remaining
// payload. All errors are ErrCorrupt: the checksum already vouched for
// the bytes, so a malformed section means an encoder bug or memory fault,
// and the caller's regenerate path is the right response either way.
func decodeRecorded(data []byte) (*sim.Recorded, []byte, error) {
	var hdr [7]uint64
	for i := range hdr {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, nil, fmt.Errorf("%w: recorded header field %d", ErrCorrupt, i)
		}
		hdr[i] = v
		data = data[n:]
	}
	nEvents, nPool := hdr[0], hdr[1]
	if nEvents > maxEvents || nPool > maxPool || nPool > nEvents || nPool == 0 && nEvents > 0 {
		return nil, nil, fmt.Errorf("%w: %d events / %d pooled lines", ErrCorrupt, nEvents, nPool)
	}
	if uint64(len(data)) < nPool*line.Size {
		return nil, nil, fmt.Errorf("%w: truncated line pool", ErrCorrupt)
	}
	// UniqueLines counts distinct addresses (not contents), so its only
	// structural bound is the event count.
	if hdr[6] > nEvents {
		return nil, nil, fmt.Errorf("%w: UniqueLines %d exceeds %d events", ErrCorrupt, hdr[6], nEvents)
	}
	pool := make([]line.Line, nPool)
	for i := range pool {
		copy(pool[i][:], data[uint64(i)*line.Size:])
	}
	data = data[nPool*line.Size:]
	// Each event takes at least one byte per varint field.
	if uint64(len(data)) < nEvents*3 {
		return nil, nil, fmt.Errorf("%w: truncated event stream", ErrCorrupt)
	}
	r := &sim.Recorded{
		Events:       make([]sim.Event, nEvents),
		Instructions: hdr[2],
		CoreAccesses: hdr[3],
		L1Hits:       hdr[4],
		L2Hits:       hdr[5],
		UniqueLines:  int(hdr[6]),
	}
	var prev line.Addr
	for i := range r.Events {
		zz, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, nil, fmt.Errorf("%w: event %d address", ErrCorrupt, i)
		}
		data = data[n:]
		delta := int64(zz>>1) ^ -int64(zz&1)
		addr := line.Addr(uint64(prev) + uint64(delta))
		instrs, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, nil, fmt.Errorf("%w: event %d instrs", ErrCorrupt, i)
		}
		data = data[n:]
		ik, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, nil, fmt.Errorf("%w: event %d pool index", ErrCorrupt, i)
		}
		data = data[n:]
		idx, kind := ik>>1, sim.EventKind(ik&1)
		if idx >= nPool {
			return nil, nil, fmt.Errorf("%w: event %d pool index %d of %d", ErrCorrupt, i, idx, nPool)
		}
		r.Events[i] = sim.Event{Kind: kind, Addr: addr, Data: pool[idx], Instrs: instrs}
		prev = addr
	}
	return r, data, nil
}

// RecordedEqual deep-compares two recordings (the -cache-verify path and
// the property tests).
func RecordedEqual(a, b *sim.Recorded) bool {
	if a.Instructions != b.Instructions || a.CoreAccesses != b.CoreAccesses ||
		a.L1Hits != b.L1Hits || a.L2Hits != b.L2Hits ||
		a.UniqueLines != b.UniqueLines || len(a.Events) != len(b.Events) {
		return false
	}
	for i := range a.Events {
		if a.Events[i] != b.Events[i] {
			return false
		}
	}
	return true
}
