package delta

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"cloudsync/internal/content"
)

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
	basis := make([]byte, 100)
	cases := []Delta{
		{BlockSize: 0, TargetSize: 0},
		{BlockSize: 10, TargetSize: 10, Ops: []Op{{Kind: OpCopy, Index: 50}}},
		{BlockSize: 10, TargetSize: 10, Ops: []Op{{Kind: OpCopy, Index: -1}}},
		{BlockSize: 10, TargetSize: 999, Ops: []Op{{Kind: OpCopy, Index: 0}}},
		{BlockSize: 10, TargetSize: 10, Ops: []Op{{Kind: OpKind(9)}}},
	}
	for i, d := range cases {
		if _, err := Apply(basis, d); err == nil {
			t.Errorf("case %d: Apply succeeded, want error", i)
		}
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

func TestWireSizeAccountsRuns(t *testing.T) {
	d := Delta{BlockSize: 10, Ops: []Op{
		{Kind: OpCopy, Index: 0},
		{Kind: OpCopy, Index: 1},
		{Kind: OpCopy, Index: 5}, // breaks the run
		{Kind: OpLiteral, Data: make([]byte, 100)},
		{Kind: OpCopy, Index: 6},
	}}
	// Runs: [0,1], [5], literal(100), [6] → 8 + 8 + 104 + 8.
	if got := d.WireSize(); got != 128 {
		t.Fatalf("WireSize = %d, want 128", got)
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

// BenchmarkDeltaCompute1MBFullRewrite is the literal-heavy worst case:
// nothing matches, so every byte of the target rolls through the
// scanner — the path the tag bitmap exists for.
//
// The seeds must be far apart: content.Random(_, s) streams are windows
// of one splitmix orbit, so seeds within size/8 words of each other
// share content (seed 2's stream is seed 1's shifted by 8 bytes). The
// literal-fraction assertion keeps this bench honest about being a
// rewrite.
func BenchmarkDeltaCompute1MBFullRewrite(b *testing.B) {
	basis := content.Random(1<<20, 1).Bytes()
	target := content.Random(1<<20, 1<<20).Bytes()
	sig := Sign(basis, DefaultBlockSize)
	if d := Compute(sig, target); d.LiteralBytes() != len(target) {
		b.Fatalf("rewrite delta matched %d bytes; seeds overlap", len(target)-d.LiteralBytes())
	}
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
	basis := content.Random(1<<20, 1).Bytes()
	target := content.Random(1<<20, 1<<20).Bytes()
	sig := Sign(basis, DefaultBlockSize)
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		computeRef(sig, target)
	}
}

// BenchmarkDeltaCompute1MBInsertShift models the workload content-
// defined chunking and rsync exist for: a small insertion near the
// front misaligns every later block, so the scanner rolls byte-by-byte
// until it realigns and then copies block after block.
func BenchmarkDeltaCompute1MBInsertShift(b *testing.B) {
	basis := content.Random(1<<20, 1).Bytes()
	ins := content.Random(137, 3).Bytes()
	target := append(append(append([]byte(nil), basis[:1000]...), ins...), basis[1000:]...)
	sig := Sign(basis, DefaultBlockSize)
	d := Compute(sig, target)
	if d.LiteralBytes() > len(target)/10 {
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
	basis := content.Random(1<<20, 1).Bytes()
	target := append([]byte(nil), basis...)
	for off := 50_000; off < len(target); off += 200_000 {
		target[off] ^= 0xFF
	}
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

// BenchmarkDeltaApply pins Apply's allocation budget: one exactly-sized
// output slice per call, regardless of how many ops the delta carries.
func BenchmarkDeltaApply(b *testing.B) {
	basis := content.Random(1<<20, 1).Bytes()
	ins := content.Random(137, 3).Bytes()
	target := append(append(append([]byte(nil), basis[:1000]...), ins...), basis[1000:]...)
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

// BenchmarkResign is the repeat-sync signature cost: a 4 MiB basis with
// 8 dirty blocks, so 8 of 512 blocks are hashed and the rest carried
// over. MB/s is over the whole target — what Sign would have to read —
// so the figure is directly comparable with BenchmarkDeltaSign1MB.
func BenchmarkResign(b *testing.B) {
	const size = 4 << 20
	basis := content.Random(size, 1).Bytes()
	target := append([]byte(nil), basis...)
	for k := 0; k < 8; k++ {
		target[k*(size/8)+12_345] ^= 0xFF
	}
	old := Sign(basis, DefaultBlockSize)
	d := Compute(old, target)
	if _, hashed := Resign(old, d, target); hashed != 8 {
		b.Fatalf("resign hashed %d blocks, want 8", hashed)
	}
	b.SetBytes(size)
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

// TestApplySingleAllocation pins the exact-size Apply contract at the
// allocation level: the output slice must be the only allocation.
func TestApplySingleAllocation(t *testing.T) {
	basis := content.Random(256<<10, 1).Bytes()
	target := append([]byte(nil), basis...)
	target[100_000] ^= 0xFF
	d := Compute(Sign(basis, 4096), target)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Apply(basis, d); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("Apply allocated %.1f times per run, want ≤ 1", allocs)
	}
}
