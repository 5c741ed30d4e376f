package chunker

import (
	"testing"
)

func benchData(n int) []byte {
	data := make([]byte, n)
	state := uint64(0x243F6A8885A308D3)
	for i := range data {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		data[i] = byte(state)
	}
	return data
}

func BenchmarkFixed(b *testing.B) {
	data := benchData(4 << 20)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if blocks := Fixed(data, 128<<10); len(blocks) == 0 {
			b.Fatal("no blocks")
		}
	}
}

// BenchmarkContentDefined measures the full chunking pipeline —
// skip-optimized boundary scan plus the batched MD5 pass. On fresh
// content it is MD5-bound: the strong hash alone runs at ~600 MB/s on
// a 2.1 GHz Xeon, so this bench can approach but never beat that. The
// boundary-discovery kernel itself is BenchmarkContentDefinedCuts.
func BenchmarkContentDefined(b *testing.B) {
	data := benchData(4 << 20)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if blocks := ContentDefined(data, 2<<10, 8<<10, 32<<10); len(blocks) == 0 {
			b.Fatal("no blocks")
		}
	}
}

// BenchmarkContentDefinedCuts is the boundary-discovery kernel alone:
// the gear-hash scan with the warm-up-window skip, no fingerprinting —
// what geometry-only callers (and cache-hit fingerprinting) pay.
func BenchmarkContentDefinedCuts(b *testing.B) {
	data := benchData(4 << 20)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cuts := CutPoints(data, 2<<10, 8<<10, 32<<10); len(cuts) == 0 {
			b.Fatal("no cuts")
		}
	}
}

// BenchmarkContentDefinedCutsRef is the retained reference loop on the
// same input — the before/after of the skip-scan rewrite, kept so the
// speedup is visible in every bench run rather than only in history.
func BenchmarkContentDefinedCutsRef(b *testing.B) {
	data := benchData(4 << 20)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cuts := cutPointsRef(data, 2<<10, 8<<10, 32<<10); len(cuts) == 0 {
			b.Fatal("no cuts")
		}
	}
}

// BenchmarkBoundaries measures the geometry-only path chunk-object
// stores use instead of Fixed when no fingerprints are needed.
func BenchmarkBoundaries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rs := Boundaries(4<<20, 128<<10); len(rs) == 0 {
			b.Fatal("no ranges")
		}
	}
}

// BenchmarkDirtyBytesManyRanges exercises the path that used to
// re-normalize the range set inside blockDirty on every call.
func BenchmarkDirtyBytesManyRanges(b *testing.B) {
	const size = 64 << 20
	ranges := make([]Range, 0, 1024)
	for off := int64(0); off < size; off += size / 1024 {
		ranges = append(ranges, Range{Off: off, Len: 1})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := DirtyBytes(size, 4<<20, ranges); n == 0 {
			b.Fatal("no dirty bytes")
		}
	}
}
