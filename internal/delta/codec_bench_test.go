package delta

import (
	"testing"

	"cloudsync/internal/content"
)

// benchDelta builds a realistic delta: a 1 MB basis with scattered edits
// and an appended tail, producing a mix of copy runs and literal ops.
func benchDelta() (Delta, Signature) {
	basis := content.Random(1<<20, 41).Bytes()
	target := append([]byte(nil), basis...)
	for off := 5_000; off < len(target); off += 90_000 {
		target[off] ^= 0xFF
	}
	target = append(target, content.Random(64<<10, 42).Bytes()...)
	sig := Sign(basis, DefaultBlockSize)
	return Compute(sig, target), sig
}

// The codec benchmarks pin the manual little-endian encode/decode paths.
// Before the rewrite, the reflection-driven binary.Write/binary.Read per
// field put Encode+Decode at thousands of allocs per delta; now Encode
// is a single sized buffer and Decode allocates only the ops slice and
// literal payloads.

func BenchmarkDeltaEncode(b *testing.B) {
	d, _ := benchDelta()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBytes = d.Encode()
	}
}

func BenchmarkDeltaDecode(b *testing.B) {
	d, _ := benchDelta()
	enc := d.Encode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := DecodeDelta(enc)
		if err != nil {
			b.Fatal(err)
		}
		sinkDelta = got
	}
}

func BenchmarkSignatureEncode(b *testing.B) {
	_, sig := benchDelta()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBytes = sig.Encode()
	}
}

func BenchmarkSignatureDecode(b *testing.B) {
	_, sig := benchDelta()
	enc := sig.Encode()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := DecodeSignature(enc)
		if err != nil {
			b.Fatal(err)
		}
		sinkSig = got
	}
}

var (
	sinkBytes []byte
	sinkDelta Delta
	sinkSig   Signature
)
