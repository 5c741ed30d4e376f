package delta

import (
	"bytes"
	"testing"

	"cloudsync/internal/content"
)

// fuzzBasis is the basis every fuzzed delta is applied to: small enough
// that a hostile op stream cannot make Apply's output large, big enough
// (eight 64-byte blocks, the last one short) for runs to land inside it.
var fuzzBasis = content.Random(64*7+21, 77).Bytes()

// FuzzDecodeDelta feeds arbitrary bytes to DecodeDelta, seeded with
// encodings that carry copy runs, single copies in the legacy 0x01
// form, an empty delta and an all-literal one, and with a 0x03 run of
// one block, which Encode writes as 0x01. DecodeDelta must never panic;
// a delta that decodes must re-encode to exactly its input; and Apply
// of it on fuzzBasis either errors or returns exactly TargetSize bytes.
// The seeds and any crashers committed under
// testdata/fuzz/FuzzDecodeDelta replay in the ordinary test run; `make
// fuzz` explores beyond them.
func FuzzDecodeDelta(f *testing.F) {
	target := append([]byte(nil), fuzzBasis...)
	target[100] ^= 0xFF
	for _, d := range []Delta{
		Compute(Sign(fuzzBasis, 64), target),               // runs around a literal
		Compute(Sign(fuzzBasis, 64), fuzzBasis),            // one run to the short final block
		Compute(Sign(fuzzBasis, 64), fuzzBasis[64*3:64*4]), // a single 0x01 copy
		Compute(Sign(nil, 64), fuzzBasis[:300]),            // all literal
		{BlockSize: 64},                                    // empty
		{BlockSize: 64, TargetSize: 128, Ops: []Op{{Kind: OpCopy, Index: 5, Count: 1}, {Kind: OpCopy, Index: 1, Count: 1}}},
	} {
		f.Add(d.Encode())
	}
	f.Add(runOfOne())
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := DecodeDelta(data)
		if err != nil {
			return
		}
		if again := d.Encode(); !bytes.Equal(again, data) {
			t.Fatalf("decoded %+v re-encodes to\n%x, not\n%x", d, again, data)
		}
		out, err := Apply(fuzzBasis, d)
		if err == nil && int64(len(out)) != d.TargetSize {
			t.Fatalf("Apply returned %d bytes for a %d-byte target", len(out), d.TargetSize)
		}
	})
}

// runOfOne is a one-op delta copying block 3 as a 0x03 run of count 1.
func runOfOne() []byte {
	enc := Delta{BlockSize: 64, TargetSize: 128, Ops: []Op{{Kind: OpCopy, Index: 3, Count: 2}}}.Encode()
	enc[len(enc)-4] = 1
	return enc
}

// FuzzDecodeSignature is FuzzDecodeDelta's twin for signatures: never
// panic, and what decodes re-encodes to exactly its input.
func FuzzDecodeSignature(f *testing.F) {
	for _, n := range []int{0, 1, 64, 64*7 + 21} {
		f.Add(Sign(fuzzBasis[:n], 64).Encode())
	}
	f.Add(Sign(fuzzBasis, BlockSizeFor(int64(len(fuzzBasis)))).Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSignature(data)
		if err != nil {
			return
		}
		if again := s.Encode(); !bytes.Equal(again, data) {
			t.Fatalf("decoded %+v re-encodes to\n%x, not\n%x", s, again, data)
		}
	})
}
