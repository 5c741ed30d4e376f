package protocol

// Analytic message sizes.
//
// The simulator's traffic accounting only needs len(Encode(m)), and the
// hot path builds messages purely to measure them — including throwaway
// fingerprint and block-index slices whose only purpose is to make the
// length prefix come out right. The helpers below compute the same
// sizes arithmetically, with zero allocation. Each helper must equal
// EncodedSize of the corresponding composed message exactly;
// TestAnalyticSizesMatchEncoder pins that equivalence.

// frameOverhead is the type byte plus the uint32 body length.
const frameOverhead = 5

// SizeIndexUpdate reports the encoded size of an IndexUpdate carrying
// the given name and nHashes block fingerprints.
func SizeIndexUpdate(name string, nHashes int) int {
	// FileID + (len-prefixed name) + Size + FileHash + BlockSize +
	// hash count + hashes.
	return frameOverhead + 8 + 4 + len(name) + 8 + FingerprintSize + 4 + 4 + FingerprintSize*nHashes
}

// SizeIndexReply reports the encoded size of an IndexReply listing
// nNeed missing block indices.
func SizeIndexReply(nNeed int) int {
	// FileID + dedup-hit flag + index count + indices.
	return frameOverhead + 8 + 1 + 4 + 4*nNeed
}

// SizeCommit reports the encoded size of a Commit.
func SizeCommit() int {
	return frameOverhead + 8 + 8
}

// SizeAck reports the encoded size of an Ack.
func SizeAck() int {
	return frameOverhead + 8 + 8 + 1
}

// SizeNotify reports the encoded size of a Notify carrying the name.
func SizeNotify(name string) int {
	return frameOverhead + 8 + 8 + 4 + len(name)
}

// SizeDelete reports the encoded size of a Delete.
func SizeDelete() int {
	return frameOverhead + 8
}

// SizeGet reports the encoded size of a Get for the name.
func SizeGet(name string) int {
	return frameOverhead + 4 + len(name)
}
