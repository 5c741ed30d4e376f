package chunker

// Reference cut-point scan: the byte-at-a-time loop the optimized
// CutPoints path must agree with exactly. It judges every byte with the
// full length checks — no warm-up skip, no segment bounds — which makes
// it obviously correct and obviously slow. It is not a test fixture:
// CutPoints falls back to it whenever min < gearWindow (the skip would
// underrun the chunk start), and the differential harness holds the
// fast path to it on every random parameter draw, so it must stay in
// the package proper.

// cutPointsRef is the reference boundary scan for CutPoints: the
// original ContentDefined loop with the MD5 pass removed. Callers have
// validated the parameters.
func cutPointsRef(data []byte, min, avg, max int) []Range {
	mask := uint64(avg - 1)
	var cuts []Range
	start := 0
	var h uint64
	for i := 0; i < len(data); i++ {
		h = (h << 1) + gearTable[data[i]]
		length := i - start + 1
		if (length >= min && h&mask == mask) || length >= max {
			cuts = append(cuts, Range{Off: int64(start), Len: int64(length)})
			start = i + 1
			h = 0
		}
	}
	if start < len(data) {
		cuts = append(cuts, Range{Off: int64(start), Len: int64(len(data) - start)})
	}
	return cuts
}

// contentDefinedRef fingerprints the reference scan's chunks: the
// oracle the differential harness compares the full optimized pipeline
// (skip-scan geometry + batched hashing) against, block for block.
func contentDefinedRef(data []byte, min, avg, max int) []Block {
	checkCDCParams(min, avg, max)
	return sumBlocks(data, cutPointsRef(data, min, avg, max))
}
