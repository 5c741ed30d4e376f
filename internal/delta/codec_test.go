package delta

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"cloudsync/internal/content"
)

func TestDeltaCodecRoundTrip(t *testing.T) {
	basis := content.Random(50_000, 1).Bytes()
	target := append([]byte(nil), basis...)
	target[100] ^= 0xFF
	target = append(target, content.Random(777, 2).Bytes()...)
	d := Compute(Sign(basis, 1024), target)

	enc := d.Encode()
	got, err := DecodeDelta(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatal("delta codec roundtrip mismatch")
	}
	// And the decoded delta still applies.
	out, err := Apply(basis, got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, target) {
		t.Fatal("decoded delta does not reconstruct target")
	}
}

func TestDeltaCodecEmpty(t *testing.T) {
	d := Delta{BlockSize: 512, TargetSize: 0}
	got, err := DecodeDelta(d.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.BlockSize != 512 || got.TargetSize != 0 || len(got.Ops) != 0 {
		t.Fatalf("roundtrip = %+v", got)
	}
}

func TestDeltaDecodeErrors(t *testing.T) {
	valid := Delta{BlockSize: 512, TargetSize: 4, Ops: []Op{
		{Kind: OpLiteral, Data: []byte("abcd")},
	}}.Encode()
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		valid[:6],                      // truncated header
		append(valid, 0xFF),            // trailing byte
		corrupt(valid, 4, 0, 0, 0, 0),  // zero block size
		corrupt(valid, 21, 0xFF),       // unknown op tag
		corrupt(valid, 22, 0xFF, 0xFF), // literal longer than body
		// Words of 2³¹ or more, which a 32-bit int reads as negative.
		corrupt(valid, 4, 0, 0, 0, 0x80),           // block size
		corrupt(valid, 21, 0xFF, 0xFF, 0xFF, 0xFF), // literal length
	}
	for i, c := range cases {
		if _, err := DecodeDelta(c); err == nil {
			t.Errorf("case %d: DecodeDelta succeeded on malformed input", i)
		}
	}
	if _, err := EncodedLiteralBytes(corrupt(valid, 21, 0xFF, 0xFF, 0xFF, 0xFF)); err == nil {
		t.Error("EncodedLiteralBytes accepted a literal of 2³² − 1 bytes in a 29-byte delta")
	}

	run := Delta{BlockSize: 512, TargetSize: 1024, Ops: []Op{{Kind: OpCopy, Index: 3, Count: 2}}}.Encode()
	if _, err := DecodeDelta(run); err != nil {
		t.Fatalf("valid run: %v", err)
	}
	for name, c := range map[string][]byte{
		"zero count":         corrupt(run, 25, 0, 0, 0, 0),
		"index+count wraps":  corrupt(run, 21, 0xFF, 0xFF, 0xFF, 0xFF),
		"count alone wraps":  corrupt(run, 25, 0xFF, 0xFF, 0xFF, 0xFF),
		"truncated run":      run[:len(run)-1],
		"run missing count":  run[:len(run)-4],
		"two ops, one given": corrupt(run, 16, 2),
	} {
		if _, err := DecodeDelta(c); err == nil {
			t.Errorf("%s: DecodeDelta succeeded on malformed input", name)
		}
	}
}

// TestDecodeDeltaHostileOpCount: the op-count word is the sender's
// claim. A bare 20-byte header claiming millions of ops must fail
// without allocating for them.
func TestDecodeDeltaHostileOpCount(t *testing.T) {
	bare := Delta{BlockSize: 8192, TargetSize: 1 << 20}.Encode()
	if len(bare) != 20 {
		t.Fatalf("header is %d bytes, want 20", len(bare))
	}
	// The same claim with a few real ops behind it: the slice is sized by
	// the bytes present, and decoding still fails at the missing ops.
	twoOps := Delta{BlockSize: 8192, Ops: []Op{{Kind: OpCopy, Index: 0, Count: 1}, {Kind: OpCopy, Index: 2, Count: 1}}}.Encode()
	for _, frame := range [][]byte{bare, twoOps} {
		for _, n := range []uint32{50_000_000, 0xFFFFFFFF} {
			frame := append([]byte(nil), frame...)
			binary.LittleEndian.PutUint32(frame[16:20], n)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := DecodeDelta(frame)
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatalf("%d ops in %d bytes decoded", n, len(frame))
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
				t.Fatalf("%d-byte delta claiming %d ops allocated %d bytes", len(frame), n, alloc)
			}
		}
	}
}

// TestDeltaEncodingGolden pins the wire bytes. A delta with no adjacent
// copies encodes exactly as before copy runs existed (one 0x01 per
// block), so an older decoder reads it; only a run of two or more
// blocks uses tag 0x03.
func TestDeltaEncodingGolden(t *testing.T) {
	legacy := Delta{BlockSize: 4, TargetSize: 11, Ops: []Op{
		{Kind: OpCopy, Index: 2, Count: 1},
		{Kind: OpLiteral, Data: []byte("abc")},
		{Kind: OpCopy, Index: 0, Count: 1},
	}}
	wantLegacy := "444c5431" + "04000000" + "0b00000000000000" + "03000000" +
		"01" + "02000000" +
		"02" + "03000000" + "616263" +
		"01" + "00000000"
	if got := hex.EncodeToString(legacy.Encode()); got != wantLegacy {
		t.Fatalf("legacy-shaped delta encodes as\n%s\nwant\n%s", got, wantLegacy)
	}

	runs := Delta{BlockSize: 4, TargetSize: 15, Ops: []Op{
		{Kind: OpCopy, Index: 1, Count: 3},
		{Kind: OpLiteral, Data: []byte("xyz")},
	}}
	wantRuns := "444c5431" + "04000000" + "0f00000000000000" + "02000000" +
		"03" + "01000000" + "03000000" +
		"02" + "03000000" + "78797a"
	if got := hex.EncodeToString(runs.Encode()); got != wantRuns {
		t.Fatalf("run delta encodes as\n%s\nwant\n%s", got, wantRuns)
	}
	for _, d := range []Delta{legacy, runs} {
		got, err := DecodeDelta(d.Encode())
		if err != nil || !reflect.DeepEqual(got, d) {
			t.Fatalf("golden delta did not round-trip: %+v, %v", got, err)
		}
	}
}

func corrupt(data []byte, off int, repl ...byte) []byte {
	out := append([]byte(nil), data...)
	copy(out[off:], repl)
	return out
}

func TestSignatureCodecRoundTrip(t *testing.T) {
	for _, size := range []int{0, 100, 1024, 10_000} {
		data := content.Random(int64(size), 3).Bytes()
		sig := Sign(data, 1024)
		got, err := DecodeSignature(sig.Encode())
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !reflect.DeepEqual(got, sig) {
			t.Fatalf("size %d: signature roundtrip mismatch\n got %+v\nwant %+v", size, got, sig)
		}
	}
}

func TestSignatureDecodeErrors(t *testing.T) {
	valid := Sign(content.Random(3000, 4).Bytes(), 1024).Encode()
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		valid[:10],
		append(valid, 1, 2, 3),
		corrupt(valid, 4, 0, 0, 0, 0),    // zero block size
		corrupt(valid, 16, 0xFF),         // block count mismatch with size
		corrupt(valid, 4, 0, 0, 0, 0x80), // block size of 2³¹
		wrappingSig(),
	}
	for i, c := range cases {
		if _, err := DecodeSignature(c); err == nil {
			t.Errorf("case %d: DecodeSignature succeeded on malformed input", i)
		}
	}
}

// TestSignatureRefusesSIG1 checks that a frame under the old magic,
// whose strong sums were MD5, is refused rather than decoded into
// sums no block of a SHA-256 scan could match.
func TestSignatureRefusesSIG1(t *testing.T) {
	frame := Sign(content.Random(3000, 5).Bytes(), 1024).Encode()
	if string(frame[:4]) != "SIG2" {
		t.Fatalf("signature magic %q, want SIG2", frame[:4])
	}
	_, err := DecodeSignature(corrupt(frame, 0, []byte("SIG1")...))
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("DecodeSignature(SIG1 frame) err = %v, want a bad-magic error", err)
	}
}

// wrappingSig is a 24-byte signature frame claiming 214 748 365 one-byte
// blocks, consistent with its file size. 20 B × that count is 2³² + 4,
// so a body-size check done in 32 bits would match the 4 bytes present
// and allocate for every claimed block.
func wrappingSig() []byte {
	const n = (1<<32 + 4) / 20
	frame := []byte(sigMagic)
	frame = binary.LittleEndian.AppendUint32(frame, 1)
	frame = binary.LittleEndian.AppendUint64(frame, n)
	frame = binary.LittleEndian.AppendUint32(frame, n)
	return append(frame, 0, 0, 0, 0)
}

// Property: encode/decode is the identity on deltas computed from
// arbitrary random inputs, and decoded deltas always apply cleanly.
func TestPropertyCodecRoundTrip(t *testing.T) {
	f := func(seedA, seedB int64, szA, szB uint16) bool {
		basis := content.Random(int64(szA), seedA).Bytes()
		target := content.Random(int64(szB), seedB).Bytes()
		d := Compute(Sign(basis, 256), target)
		got, err := DecodeDelta(d.Encode())
		if err != nil {
			return false
		}
		out, err := Apply(basis, got)
		return err == nil && bytes.Equal(out, target)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: DecodeDelta and DecodeSignature never panic on arbitrary
// input.
func TestPropertyDecodeRobust(t *testing.T) {
	f := func(data []byte) bool {
		DecodeDelta(data)
		DecodeSignature(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodedLiteralBytes(t *testing.T) {
	basis := content.Random(50_000, 10).Bytes()
	target := append([]byte(nil), basis...)
	target[5000] ^= 0xFF
	target = append(target, content.Random(900, 11).Bytes()...)
	d := Compute(Sign(basis, 1024), target)
	enc := d.Encode()
	if len(d.Ops) >= d.CopiedBlocks() {
		t.Fatalf("%d ops for %d copied blocks: the delta has no multi-block run to scan past", len(d.Ops), d.CopiedBlocks())
	}

	got, err := EncodedLiteralBytes(enc)
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(d.LiteralBytes()); got != want {
		t.Fatalf("EncodedLiteralBytes = %d, want %d", got, want)
	}

	// All-literal and empty deltas.
	for _, dd := range []Delta{
		Compute(Sign(nil, 512), content.Random(3000, 12).Bytes()),
		{BlockSize: 512},
	} {
		got, err := EncodedLiteralBytes(dd.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(dd.LiteralBytes()); got != want {
			t.Fatalf("EncodedLiteralBytes = %d, want %d", got, want)
		}
	}

	// Corruption is reported, not mis-counted.
	if _, err := EncodedLiteralBytes(enc[:10]); err == nil {
		t.Error("truncated delta should error")
	}
	bad := append([]byte(nil), enc...)
	bad[0] = 'X'
	if _, err := EncodedLiteralBytes(bad); err == nil {
		t.Error("bad magic should error")
	}
}
