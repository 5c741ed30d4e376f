package delta

import (
	"testing"

	"cloudsync/internal/content"
	"cloudsync/internal/kerneltest"
)

// The kernel fixtures: each benchmark and its TestAllocCeilings row
// run on the same input.

// rewrite1MB is the all-literal worst case for Compute: a signature of
// one 1 MiB random file and a target that shares nothing with it.
//
// The seeds must be far apart: content.Random(_, s) streams are windows
// of one splitmix orbit, so seeds within size/8 words of each other
// share content (seed 2's stream is seed 1's shifted by 8 bytes). The
// literal-fraction assertion keeps the fixture honest about being a
// rewrite.
func rewrite1MB(tb testing.TB) (Signature, []byte) {
	basis := content.Random(1<<20, 1).Bytes()
	target := content.Random(1<<20, 1<<20).Bytes()
	sig := Sign(basis, DefaultBlockSize)
	if d := Compute(sig, target); d.LiteralBytes() != len(target) {
		tb.Fatalf("rewrite delta matched %d bytes; seeds overlap", len(target)-d.LiteralBytes())
	}
	return sig, target
}

// insertShift1MB is a 1 MiB file with 137 bytes inserted near the
// front: every later block is misaligned.
func insertShift1MB() (basis, target []byte) {
	basis = content.Random(1<<20, 1).Bytes()
	ins := content.Random(137, 3).Bytes()
	target = append(append(append([]byte(nil), basis[:1000]...), ins...), basis[1000:]...)
	return basis, target
}

// sparseEdits1MB is a 1 MiB file with a single-byte edit every 200 KB.
func sparseEdits1MB() (basis, target []byte) {
	basis = content.Random(1<<20, 1).Bytes()
	target = append([]byte(nil), basis...)
	for off := 50_000; off < len(target); off += 200_000 {
		target[off] ^= 0xFF
	}
	return basis, target
}

// resign4MB is a repeat sync: a 4 MiB basis with 8 dirty blocks, so
// Resign hashes 8 of 512 blocks and carries the rest over.
func resign4MB(tb testing.TB) (Signature, Delta, []byte) {
	const size = 4 << 20
	basis := content.Random(size, 1).Bytes()
	target := append([]byte(nil), basis...)
	for k := 0; k < 8; k++ {
		target[k*(size/8)+12_345] ^= 0xFF
	}
	old := Sign(basis, DefaultBlockSize)
	d := Compute(old, target)
	if _, hashed := Resign(old, d, target); hashed != 8 {
		tb.Fatalf("resign hashed %d blocks, want 8", hashed)
	}
	return old, d, target
}

// TestAllocCeilings pins each kernel's allocations per call, row names
// after their benchmarks. A count does not depend on the machine, so
// each ceiling is the exact count. Apply's is its contract: the
// exactly-sized output is the only allocation, however many ops the
// delta carries (ApplySingleAllocation: 256 KiB, 4 KiB blocks, one
// edit).
func TestAllocCeilings(t *testing.T) {
	data := content.Random(1<<20, 1).Bytes()
	sig := Sign(data, DefaultBlockSize)
	rwSig, rwTarget := rewrite1MB(t)
	isBasis, isTarget := insertShift1MB()
	isSig := Sign(isBasis, DefaultBlockSize)
	isDelta := Compute(isSig, isTarget)
	seBasis, seTarget := sparseEdits1MB()
	seSig := Sign(seBasis, DefaultBlockSize)
	old, rsDelta, rsTarget := resign4MB(t)
	small := content.Random(256<<10, 1).Bytes()
	smallEdit := append([]byte(nil), small...)
	smallEdit[100_000] ^= 0xFF
	smallDelta := Compute(Sign(small, 4096), smallEdit)
	codecDelta, _ := benchDelta()
	enc := codecDelta.Encode()

	apply := func(basis []byte, d Delta) func() {
		return func() {
			if _, err := Apply(basis, d); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name    string
		ceiling float64
		run     func()
	}{
		{"DeltaSign1MB", 1, func() { Sign(data, DefaultBlockSize) }},
		{"DeltaCompute1MBUnchanged", 3, func() { Compute(sig, data) }},
		{"DeltaCompute1MBFullRewrite", 4, func() { Compute(rwSig, rwTarget) }},
		{"DeltaCompute1MBInsertShift", 5, func() { Compute(isSig, isTarget) }},
		{"DeltaComputeSparseEdits", 8, func() { Compute(seSig, seTarget) }},
		{"DeltaApply", 1, apply(isBasis, isDelta)},
		{"ApplySingleAllocation", 1, apply(small, smallDelta)},
		{"Resign", 1, func() { sinkSig, _ = Resign(old, rsDelta, rsTarget) }},
		{"WeakSum", 0, func() { weakSum(data) }},
		{"DeltaEncode", 1, func() { sinkBytes = codecDelta.Encode() }},
		{"DeltaDecode", 15, func() {
			if _, err := DecodeDelta(enc); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if allocs := testing.AllocsPerRun(5, tc.run); allocs > tc.ceiling {
				t.Errorf("%.0f allocations per call, ceiling %.0f", allocs, tc.ceiling)
			}
		})
	}
}

// TestComputeOutrunsReference guards the tag bitmap: on the all-literal
// rewrite, where every byte rolls through the scanner, Compute must
// stay well ahead of computeRef, which probes the weak table at every
// byte. The ratio is 6–11× on a 2-vCPU Xeon, with or without a
// `tuebench -quick` load beside it; without the bitmap it falls to
// about 1.
func TestComputeOutrunsReference(t *testing.T) {
	if kerneltest.Race {
		t.Skip("the race detector's per-access cost flattens the ratio")
	}
	sig, target := rewrite1MB(t)
	r := kerneltest.SpeedRatio(func() { Compute(sig, target) }, func() { computeRef(sig, target) }, 7)
	t.Logf("Compute is %.2f× computeRef", r)
	if r < 3 {
		t.Fatalf("Compute is %.2f× computeRef on an all-literal rewrite, want ≥ 3×", r)
	}
}
