package delta

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"cloudsync/internal/content"
)

// CopiedBlocks reports how many basis blocks the delta references.
func (d Delta) CopiedBlocks() int {
	n := 0
	for _, op := range d.Ops {
		if op.Kind == OpCopy {
			n += op.Count
		}
	}
	return n
}

func roundTrip(t *testing.T, basis, target []byte, blockSize int) Delta {
	t.Helper()
	sig := Sign(basis, blockSize)
	d := Compute(sig, target)
	got, err := Apply(basis, d)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if !bytes.Equal(got, target) {
		t.Fatalf("roundtrip mismatch: got %d bytes, want %d", len(got), len(target))
	}
	return d
}

func TestIdenticalFilesAllCopy(t *testing.T) {
	data := content.Random(100_000, 1).Bytes()
	d := roundTrip(t, data, data, 4096)
	if d.LiteralBytes() != 0 {
		t.Fatalf("identical files sent %d literal bytes", d.LiteralBytes())
	}
	if d.CopiedBlocks() != 25 {
		t.Fatalf("CopiedBlocks = %d, want 25", d.CopiedBlocks())
	}
	// A fully-matching delta collapses to one copy run.
	if ws := d.WireSize(); ws != 8 {
		t.Fatalf("WireSize = %d, want 8 (single copy run)", ws)
	}
}

func TestEmptyBasisAllLiteral(t *testing.T) {
	target := content.Random(10_000, 2).Bytes()
	d := roundTrip(t, nil, target, 4096)
	if d.LiteralBytes() != len(target) {
		t.Fatalf("LiteralBytes = %d, want %d", d.LiteralBytes(), len(target))
	}
	if d.CopiedBlocks() != 0 {
		t.Fatal("copied blocks from empty basis")
	}
}

func TestEmptyTarget(t *testing.T) {
	d := roundTrip(t, content.Random(10_000, 3).Bytes(), nil, 4096)
	if len(d.Ops) != 0 {
		t.Fatalf("delta to empty target has %d ops", len(d.Ops))
	}
}

func TestSingleByteChange(t *testing.T) {
	basis := content.Random(100_000, 4).Bytes()
	target := append([]byte(nil), basis...)
	target[50_000] ^= 0xFF
	d := roundTrip(t, basis, target, 4096)
	// Only the containing block should go as literal — this is the
	// paper's estimate "once a random byte is changed, the whole chunk
	// containing the byte must be delivered".
	if d.LiteralBytes() != 4096 {
		t.Fatalf("LiteralBytes = %d, want exactly one block (4096)", d.LiteralBytes())
	}
}

func TestAppendOnlyChange(t *testing.T) {
	basis := content.Random(100_000, 5).Bytes()
	extra := content.Random(1000, 6).Bytes()
	target := append(append([]byte(nil), basis...), extra...)
	d := roundTrip(t, basis, target, 4096)
	// Appending must resend at most the final partial block plus the new
	// bytes: 100000 % 4096 = 1696 tail + 1000 new.
	if d.LiteralBytes() > 1696+1000 {
		t.Fatalf("append sent %d literal bytes, want ≤ %d", d.LiteralBytes(), 2696)
	}
}

func TestInsertionShiftsHandled(t *testing.T) {
	// Insert bytes near the front: rolling matching should realign and
	// copy almost everything after the insertion.
	basis := content.Random(200_000, 7).Bytes()
	ins := content.Random(137, 8).Bytes()
	target := append(append(append([]byte(nil), basis[:1000]...), ins...), basis[1000:]...)
	d := roundTrip(t, basis, target, 4096)
	if frac := float64(d.LiteralBytes()) / float64(len(target)); frac > 0.10 {
		t.Fatalf("insertion resent %.2f of the file; rolling match should keep it under 10%%", frac)
	}
}

func TestTailPartialBlockMatch(t *testing.T) {
	// Basis ends with a partial block; unchanged tail should be copied.
	basis := content.Random(10_000, 9).Bytes() // 2×4096 + 1808 tail
	target := append([]byte(nil), basis...)
	target[0] ^= 1 // change first block only
	d := roundTrip(t, basis, target, 4096)
	if d.LiteralBytes() != 4096 {
		t.Fatalf("LiteralBytes = %d, want 4096 (tail partial should match)", d.LiteralBytes())
	}
}

func TestSignWireSize(t *testing.T) {
	sig := Sign(content.Random(100_000, 10).Bytes(), 4096)
	want := 12 + len(sig.Blocks)*20
	if got := sig.WireSize(); got != want {
		t.Fatalf("WireSize = %d, want %d", got, want)
	}
	// SignatureWireSize predicts it without signing, short tail or none.
	for _, size := range []int{0, 1, 4095, 4096, 4097, 100_000} {
		sig := Sign(content.Random(int64(size), 11).Bytes(), 4096)
		if got := SignatureWireSize(int64(size), 4096); got != int64(sig.WireSize()) {
			t.Errorf("SignatureWireSize(%d, 4096) = %d, Sign's WireSize %d", size, got, sig.WireSize())
		}
	}
	if got, want := SignatureWireSize(1<<42, MinBlockSize), int64(12+(1<<33)*20); got != want {
		t.Errorf("SignatureWireSize(2^42, %d) = %d, want %d", MinBlockSize, got, want)
	}
}

func TestSignInvalidBlockSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Sign with block size 0 did not panic")
		}
	}()
	Sign([]byte{1}, 0)
}

func TestComputeInvalidSigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Compute with invalid signature did not panic")
		}
	}()
	Compute(Signature{BlockSize: 0}, []byte{1})
}

func TestApplyErrors(t *testing.T) {
	basis := make([]byte, 95) // ten blocks of 10, the last one short
	cases := []Delta{
		{BlockSize: 0, TargetSize: 0},
		{BlockSize: 10, TargetSize: 10, Ops: []Op{{Kind: OpCopy, Index: 50, Count: 1}}},
		{BlockSize: 10, TargetSize: 10, Ops: []Op{{Kind: OpCopy, Index: -1, Count: 1}}},
		{BlockSize: 10, TargetSize: 10, Ops: []Op{{Kind: OpCopy, Index: 0, Count: 0}}},
		{BlockSize: 10, TargetSize: 10, Ops: []Op{{Kind: OpCopy, Index: 0, Count: -1}}},
		{BlockSize: 10, TargetSize: 100, Ops: []Op{{Kind: OpCopy, Index: 1, Count: 10}}},         // run past the basis
		{BlockSize: 10, TargetSize: 95, Ops: []Op{{Kind: OpCopy, Index: 0, Count: math.MaxInt}}}, // count overflows Count×BlockSize
		{BlockSize: 10, TargetSize: 999, Ops: []Op{{Kind: OpCopy, Index: 0, Count: 1}}},
		{BlockSize: 10, TargetSize: 5, Ops: []Op{{Kind: OpCopy, Index: 0, Count: 1}}},
		{BlockSize: 10, TargetSize: 10, Ops: []Op{{Kind: OpKind(9)}}},
		{BlockSize: 10, TargetSize: -1},
	}
	for i, d := range cases {
		if _, err := Apply(basis, d); err == nil {
			t.Errorf("case %d: Apply succeeded, want error", i)
		}
		if _, err := d.Validate(len(basis)); err == nil {
			t.Errorf("case %d: Validate passed, want error", i)
		}
	}
	d := Delta{BlockSize: 10, TargetSize: 18, Ops: []Op{{Kind: OpCopy, Index: 9, Count: 1}, {Kind: OpLiteral, Data: []byte("abcdefghijklm")}}}
	if n, err := d.Validate(len(basis)); n != 18 || err != nil {
		t.Errorf("Validate of 5 B copied and 13 B literal: %d, %v; want 18", n, err)
	}
}

// TestSignPartsReadsInPlace: a file cut into parts anyhow — empty
// parts, parts shorter and longer than a block, at block sizes that do
// and do not divide them — signs exactly as the whole file does, and
// the caller's parts are left as they were.
func TestSignPartsReadsInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	for _, size := range []int{0, 1, 511, 4096, 70_000} {
		data := content.Random(int64(size), int64(size)).Bytes()
		for _, bs := range []int{1, 512, 1000, 16 << 10, 128 << 10} {
			var parts [][]byte
			for off := 0; off < size || len(parts) == 0; {
				n := min(rng.Intn(3*bs+1)*rng.Intn(2), size-off)
				parts = append(parts, data[off:off+n])
				off += n
			}
			kept := append([][]byte(nil), parts...)
			want, got := Sign(data, bs), SignParts(parts, bs)
			if !bytes.Equal(got.Encode(), want.Encode()) || got.FileSize != want.FileSize || len(got.Blocks) != len(want.Blocks) {
				t.Fatalf("%d B in %d parts at %d B blocks: SignParts differs from Sign", size, len(parts), bs)
			}
			for i := range parts {
				if len(parts[i]) != len(kept[i]) || len(parts[i]) > 0 && &parts[i][0] != &kept[i][0] {
					t.Fatalf("%d B at %d B blocks: SignParts moved part %d", size, bs, i)
				}
			}
		}
	}
}

// TestApplyChecksBeforeAllocating: TargetSize arrives off the wire, so a
// delta whose ops do not add up to it must fail without allocating it.
func TestApplyChecksBeforeAllocating(t *testing.T) {
	basis := make([]byte, 1000)
	d := Delta{BlockSize: 100, TargetSize: 64 << 20, Ops: []Op{{Kind: OpCopy, Index: 0, Count: 10}}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Apply(basis, d)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("Apply succeeded on 1000 bytes of ops claiming 64 MiB")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("failed Apply allocated %d bytes", alloc)
	}
}

// TestApplyRunCopiesShortFinalBlock: a run ending on the basis's short
// final block copies exactly to the end of the basis.
func TestApplyRunCopiesShortFinalBlock(t *testing.T) {
	basis := content.Random(1000, 12).Bytes()
	d := Delta{BlockSize: 128, TargetSize: 1000 - 256 + 3, Ops: []Op{
		{Kind: OpLiteral, Data: []byte("abc")},
		{Kind: OpCopy, Index: 2, Count: 6},
	}}
	got, err := Apply(basis, d)
	if err != nil {
		t.Fatal(err)
	}
	if want := append([]byte("abc"), basis[256:]...); !bytes.Equal(got, want) {
		t.Fatal("run ending on the short final block reconstructed the wrong bytes")
	}
}

func TestBlockSizeFor(t *testing.T) {
	cases := []struct {
		size int64
		want int
	}{
		{0, 512},
		{1, 512},
		{256<<10 - 1, 512},
		{256 << 10, 512},
		{1 << 20, 1 << 10},
		{4 << 20, 2 << 10},
		{4<<20 - 1, 1 << 10},
		{1 << 30, 32 << 10},
		{1 << 40, 128 << 10},
		{-1, 512},
	}
	for _, c := range cases {
		if got := BlockSizeFor(c.size); got != c.want {
			t.Errorf("BlockSizeFor(%d) = %d, want %d", c.size, got, c.want)
		}
	}
	prev := 0
	for size := int64(0); size < 1<<42; size = size*5/4 + 1 {
		bs := BlockSizeFor(size)
		if bs&(bs-1) != 0 || bs < 512 || bs > 128<<10 {
			t.Fatalf("BlockSizeFor(%d) = %d: not a power of two in [512, 128 KiB]", size, bs)
		}
		if bs < prev {
			t.Fatalf("BlockSizeFor(%d) = %d, below %d for a smaller file", size, bs, prev)
		}
		if int64(bs) > 512 && int64(bs)*int64(bs) > size {
			t.Fatalf("BlockSizeFor(%d) = %d exceeds √size", size, bs)
		}
		prev = bs
	}
}

// TestComputeEmitsRuns pins the op count the live path sees: eight
// in-place edits of a 4 MiB file at its own block size are nine copy
// runs around eight literals, not one op per block.
func TestComputeEmitsRuns(t *testing.T) {
	const size = 4 << 20
	basis := content.Random(size, 13).Bytes()
	target := append([]byte(nil), basis...)
	bs := BlockSizeFor(size)
	for k := 0; k < 8; k++ {
		target[k*(size/8)+bs+7] ^= 0xFF
	}
	d := roundTrip(t, basis, target, bs)
	if len(d.Ops) != 17 || d.CopiedBlocks() != size/bs-8 || d.LiteralBytes() != 8*bs {
		t.Fatalf("%d ops, %d copied blocks, %d literal bytes; want 17, %d, %d",
			len(d.Ops), d.CopiedBlocks(), d.LiteralBytes(), size/bs-8, 8*bs)
	}
	if got, want := d.WireSize(), 9*8+8*(4+bs); got != want {
		t.Fatalf("WireSize = %d, want %d", got, want)
	}
}

func TestWeakSumRolling(t *testing.T) {
	data := content.Random(1000, 11).Bytes()
	const n = 64
	w := weakSum(data[:n])
	for i := 1; i+n <= len(data); i++ {
		w = roll(w, data[i-1], data[i+n-1], n)
		if direct := weakSum(data[i : i+n]); w != direct {
			t.Fatalf("rolling sum diverged at offset %d: %08x vs %08x", i, w, direct)
		}
	}
}

// TestStrongSumKnownAnswer pins a block's strong sum to the first 16
// bytes of its SHA-256: the FIPS 180-2 "abc" vector, the empty block,
// and every block Sign cuts from a random file with a short tail.
func TestStrongSumKnownAnswer(t *testing.T) {
	abc := strongSum([]byte("abc"))
	if got, want := hex.EncodeToString(abc[:]), "ba7816bf8f01cfea414140de5dae2223"; got != want {
		t.Fatalf("strongSum(abc) = %s, want %s", got, want)
	}
	for _, x := range [][]byte{nil, {0}, content.Random(4096, 21).Bytes()} {
		full := sha256.Sum256(x)
		if got := strongSum(x); !bytes.Equal(got[:], full[:16]) {
			t.Fatalf("strongSum of %d bytes = %x, want %x", len(x), got, full[:16])
		}
	}
	data := content.Random(3*512+100, 22).Bytes()
	for _, b := range Sign(data, 512).Blocks {
		full := sha256.Sum256(data[b.Index*512 : b.Index*512+b.Size])
		if !bytes.Equal(b.Strong[:], full[:16]) {
			t.Fatalf("block %d: Strong = %x, want %x", b.Index, b.Strong, full[:16])
		}
	}
}

func TestWireSizeAccountsRuns(t *testing.T) {
	d := Delta{BlockSize: 10, Ops: []Op{
		{Kind: OpCopy, Index: 0, Count: 1},
		{Kind: OpCopy, Index: 1, Count: 1},
		{Kind: OpCopy, Index: 5, Count: 1}, // breaks the run
		{Kind: OpLiteral, Data: make([]byte, 100)},
		{Kind: OpCopy, Index: 6, Count: 1},
	}}
	// Runs: [0,1], [5], literal(100), [6] → 8 + 8 + 104 + 8.
	if got := d.WireSize(); got != 128 {
		t.Fatalf("WireSize = %d, want 128", got)
	}
	// The same blocks held as runs, split anywhere, price the same.
	runs := Delta{BlockSize: 10, Ops: []Op{
		{Kind: OpCopy, Index: 0, Count: 2},
		{Kind: OpCopy, Index: 5, Count: 1},
		{Kind: OpLiteral, Data: make([]byte, 100)},
		{Kind: OpCopy, Index: 6, Count: 1},
	}}
	if got := runs.WireSize(); got != 128 {
		t.Fatalf("WireSize of runs = %d, want 128", got)
	}
	split := Delta{BlockSize: 10, Ops: []Op{
		{Kind: OpCopy, Index: 3, Count: 4},
		{Kind: OpCopy, Index: 7, Count: 2}, // continues [3,7)
	}}
	if got := split.WireSize(); got != 8 {
		t.Fatalf("WireSize of a split run = %d, want 8", got)
	}
}

// Property: Apply(basis, Compute(Sign(basis), target)) == target for
// random bases, random edits, and random block sizes.
func TestPropertyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 120; iter++ {
		blockSize := 16 << (rng.Intn(7)) // 16..1024
		basis := content.Random(int64(rng.Intn(20_000)), int64(iter)).Bytes()
		target := append([]byte(nil), basis...)
		// Random edit script: mutations, insertions, deletions.
		for k := 0; k < rng.Intn(8); k++ {
			if len(target) == 0 {
				target = content.Random(int64(rng.Intn(1000)+1), int64(iter*100+k)).Bytes()
				continue
			}
			switch rng.Intn(3) {
			case 0: // mutate
				target[rng.Intn(len(target))] ^= byte(1 + rng.Intn(255))
			case 1: // insert
				pos := rng.Intn(len(target) + 1)
				ins := content.Random(int64(rng.Intn(500)), int64(iter*1000+k)).Bytes()
				target = append(target[:pos:pos], append(ins, target[pos:]...)...)
			case 2: // delete
				pos := rng.Intn(len(target))
				n := rng.Intn(len(target) - pos + 1)
				target = append(target[:pos:pos], target[pos+n:]...)
			}
		}
		sig := Sign(basis, blockSize)
		d := Compute(sig, target)
		got, err := Apply(basis, d)
		if err != nil {
			t.Fatalf("iter %d (bs=%d): %v", iter, blockSize, err)
		}
		if !bytes.Equal(got, target) {
			t.Fatalf("iter %d (bs=%d): mismatch len(basis)=%d len(target)=%d",
				iter, blockSize, len(basis), len(target))
		}
		if d.LiteralBytes() > len(target) {
			t.Fatalf("iter %d: literal bytes exceed target size", iter)
		}
	}
}

// Property (testing/quick): deltas never contain negative block indices
// and wire size is at least the literal payload.
func TestPropertyWireSizeBounds(t *testing.T) {
	f := func(seedA, seedB int64, szA, szB uint16) bool {
		basis := content.Random(int64(szA), seedA).Bytes()
		target := content.Random(int64(szB), seedB).Bytes()
		d := Compute(Sign(basis, 256), target)
		for _, op := range d.Ops {
			if op.Kind == OpCopy && op.Index < 0 {
				return false
			}
		}
		return d.WireSize() >= d.LiteralBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkDeltaCompute1MBUnchanged(b *testing.B) {
	data := content.Random(1<<20, 1).Bytes()
	sig := Sign(data, DefaultBlockSize)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compute(sig, data)
	}
}

// BenchmarkDeltaCompute1MBFullRewrite is the literal-heavy worst case
// (rewrite1MB): every byte of the target rolls through the scanner —
// the path the tag bitmap exists for.
func BenchmarkDeltaCompute1MBFullRewrite(b *testing.B) {
	sig, target := rewrite1MB(b)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compute(sig, target)
	}
}

// BenchmarkDeltaCompute1MBFullRewriteRef is the retained pre-bitmap
// scanner on the same all-literal input — the before/after of the tag
// bitmap, visible in every bench run rather than only in history.
func BenchmarkDeltaCompute1MBFullRewriteRef(b *testing.B) {
	sig, target := rewrite1MB(b)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		computeRef(sig, target)
	}
}

// BenchmarkDeltaCompute1MBInsertShift models the workload content-
// defined chunking and rsync exist for (insertShift1MB): the scanner
// rolls byte-by-byte until it realigns and then copies block after
// block.
func BenchmarkDeltaCompute1MBInsertShift(b *testing.B) {
	basis, target := insertShift1MB()
	sig := Sign(basis, DefaultBlockSize)
	if d := Compute(sig, target); d.LiteralBytes() > len(target)/10 {
		b.Fatalf("insert-shift delta resent %d literal bytes", d.LiteralBytes())
	}
	b.SetBytes(int64(len(target)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compute(sig, target)
	}
}

// BenchmarkDeltaComputeSparseEdits: a handful of scattered single-byte
// edits — mostly aligned copies with short literal runs between them.
func BenchmarkDeltaComputeSparseEdits(b *testing.B) {
	basis, target := sparseEdits1MB()
	sig := Sign(basis, DefaultBlockSize)
	b.SetBytes(int64(len(target)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Compute(sig, target)
	}
}

func BenchmarkDeltaSign1MB(b *testing.B) {
	data := content.Random(1<<20, 1).Bytes()
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Sign(data, DefaultBlockSize)
	}
}

func BenchmarkDeltaApply(b *testing.B) {
	basis, target := insertShift1MB()
	d := Compute(Sign(basis, DefaultBlockSize), target)
	b.SetBytes(int64(len(target)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Apply(basis, d); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResign is the repeat-sync signature cost (resign4MB). MB/s
// is over the whole target — what Sign would have to read — so the
// figure is directly comparable with BenchmarkDeltaSign1MB.
func BenchmarkResign(b *testing.B) {
	old, d, target := resign4MB(b)
	b.SetBytes(int64(len(target)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkSig, _ = Resign(old, d, target)
	}
}

func BenchmarkWeakSum(b *testing.B) {
	data := content.Random(1<<20, 1).Bytes()
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if weakSum(data) == 0 {
			b.Fatal("unlikely zero sum")
		}
	}
}
