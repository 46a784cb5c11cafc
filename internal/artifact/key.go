package artifact

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"

	"repro/internal/sim"
	"repro/internal/workload"
)

// keyU64 appends fixed-width little-endian words to a key descriptor.
// Fixed width (not varint) keeps field boundaries unambiguous, the same
// discipline workload.Profile.AppendKey uses.
func keyU64(dst []byte, vs ...uint64) []byte {
	for _, v := range vs {
		dst = binary.LittleEndian.AppendUint64(dst, v)
	}
	return dst
}

// keyString appends a length-prefixed string (self-delimiting, so
// adjacent strings cannot alias each other's bytes).
func keyString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(len(s)))
	return append(dst, s...)
}

func hashKey(buf []byte) string {
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}

// RecordedKey derives the content address of a recording: the SHA-256 of
// every input sim.Record's output depends on — the codec version (so a
// format or semantics bump invalidates everything), the full profile
// descriptor, the private-level geometry that does the L1/L2 filtering,
// and the trace length. Timing parameters and LLC configuration are
// deliberately excluded: they only affect replay, not the recording.
func RecordedKey(p workload.Profile, sys sim.SystemConfig, accesses int) string {
	buf := make([]byte, 0, 256)
	buf = append(buf, fmt.Sprintf("thesaurus-recorded-v%d\x00", Version)...)
	buf = p.AppendKey(buf)
	buf = keyU64(buf, uint64(sys.L1DSizeBytes), uint64(sys.L1DWays),
		uint64(sys.L2SizeBytes), uint64(sys.L2Ways), uint64(accesses))
	return hashKey(buf)
}
