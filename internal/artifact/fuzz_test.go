package artifact

import (
	"bytes"
	"testing"
)

// FuzzRecordedCodecRoundtrip feeds arbitrary bytes to the decoder: it must
// never panic or over-allocate, and anything it accepts must re-encode to
// the identical canonical bytes (decode∘encode is the identity on the
// image of Encode).
func FuzzRecordedCodecRoundtrip(f *testing.F) {
	f.Add([]byte{})
	f.Add(Encode(nil, &File{Recorded: synthRecorded(1, 40)}))
	f.Add(Encode(nil, &File{Recorded: synthRecorded(2, 7)}))
	f.Fuzz(func(t *testing.T, data []byte) {
		decoded, err := Decode(data)
		if err != nil {
			return
		}
		re := Encode(nil, decoded)
		if !bytes.Equal(re, data) {
			t.Fatalf("accepted %d bytes but re-encoded to %d different bytes", len(data), len(re))
		}
		round, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoding of accepted input rejected: %v", err)
		}
		if (round.Recorded == nil) != (decoded.Recorded == nil) {
			t.Fatal("section presence changed across roundtrip")
		}
		if round.Recorded != nil && !RecordedEqual(round.Recorded, decoded.Recorded) {
			t.Fatal("recording changed across roundtrip")
		}
	})
}
