package delta

import "fmt"

// Retained reference implementations: the straightforward forms of the
// optimized kernels, which the differential harness and the benchmarks
// hold every release's Compute/weakSum to on random inputs. They trade
// all the throughput tricks — the tag bitmap, the unrolled checksum, the
// literal arena — for being an obviously faithful transcription of the
// rsync scan.

// weakSumRef is the textbook two-accumulator checksum: b weights each
// byte by its distance from the window end.
func weakSumRef(data []byte) uint32 {
	var a, b uint32
	n := uint32(len(data))
	for i, ch := range data {
		a += uint32(ch)
		b += (n - uint32(i)) * uint32(ch)
	}
	return (a & 0xffff) | (b << 16)
}

// computeRef is the pre-bitmap Compute: a full weak-table probe on
// every scanned byte and per-op literal copies. Kept verbatim so delta
// equivalence (op-for-op, byte-for-byte) is checkable forever.
func computeRef(sig Signature, target []byte) Delta {
	bs := sig.BlockSize
	if bs <= 0 {
		panic(fmt.Sprintf("delta: signature with invalid block size %d", bs))
	}
	d := Delta{BlockSize: bs, TargetSize: int64(len(target))}

	wt, partial := buildWeakTable(sig.Blocks, bs)

	emitLiteral := func(data []byte) {
		if len(data) == 0 {
			return
		}
		d.Ops = append(d.Ops, Op{Kind: OpLiteral, Data: append([]byte(nil), data...)})
	}

	litStart := 0
	i := 0
	if len(target) >= bs && wt.count > 0 {
		w := weakSumRef(target[:bs])
		for {
			matched := -1
			if cand := wt.lookup(w); cand >= 0 {
				strong := strongSum(target[i : i+bs])
				for ; cand >= 0; cand = wt.next[cand] {
					if wt.blocks[cand].Strong == strong {
						matched = wt.blocks[cand].Index
						break
					}
				}
			}
			if matched >= 0 {
				emitLiteral(target[litStart:i])
				d.Ops = append(d.Ops, Op{Kind: OpCopy, Index: matched})
				i += bs
				litStart = i
				if i+bs > len(target) {
					break
				}
				w = weakSumRef(target[i : i+bs])
				continue
			}
			if i+bs >= len(target) {
				break
			}
			w = roll(w, target[i], target[i+bs], bs)
			i++
		}
	}

	rest := target[litStart:]
	if partial != nil && len(rest) >= partial.Size && partial.Size > 0 {
		tail := rest[len(rest)-partial.Size:]
		if weakSumRef(tail) == partial.Weak && strongSum(tail) == partial.Strong {
			emitLiteral(rest[:len(rest)-partial.Size])
			d.Ops = append(d.Ops, Op{Kind: OpCopy, Index: partial.Index})
			return d
		}
	}
	emitLiteral(rest)
	return d
}
