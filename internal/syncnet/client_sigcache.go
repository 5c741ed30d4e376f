package syncnet

import (
	"container/list"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"

	"cloudsync/internal/delta"
	"cloudsync/internal/protocol"
)

// sigCacheBudget bounds what one client remembers about the files it
// uploads and delta-syncs, in encoded signature bytes
// (delta.Signature.WireSize: 20 per block) plus 16 per leaf tag held
// beside a signature (0.1 % of a file). At heldBlockSize's blocks a
// signature is 3.9 % of a file up to 4 MiB (512 B blocks), 1 % of
// 16 MiB, 0.06 % of 1 GiB — so the budget covers ≈ 100 MB of files up
// to 4 MiB (24 files of 4 MiB), ≈ 400 MB of 16 MiB ones; resident, a
// block signature is twice that.
const sigCacheBudget = 4 << 20

// heldSigShare is the most one file's held signature may take of
// sigCacheBudget: a sixteenth, so one large file neither empties the
// cache nor is refused by put.
const heldSigShare = sigCacheBudget / 16

// heldBlockSize is the block size a client signs a file of size bytes
// at when it signs its own bytes and holds the result (a full upload;
// delta.Resign keeps it until the next one). Such a signature never
// crosses the wire, so DESIGN's 20·p·N/B + e·B has p = 0 and the finest
// block wins: the smallest power of two from delta.MinBlockSize whose
// signature fits heldSigShare, but never coarser than
// delta.BlockSizeFor(size), the √N rule for a signature that is served
// (p = 1). Below 1 MiB the two agree; 4 MiB → 512 B, 16 MiB → 2 KiB,
// and from 64 MiB up it is BlockSizeFor's.
func heldBlockSize(size int64) int {
	served := delta.BlockSizeFor(size)
	bs := delta.MinBlockSize
	for bs < served && delta.SignatureWireSize(size, bs) > heldSigShare {
		bs *= 2
	}
	return bs
}

// leafTag is a leaf's tag under one client's key (leafTagger).
type leafTag = [16]byte

// leafNonce is the one nonce every leaf tag is sealed under.
var leafNonce [12]byte

// leafTagger tags a client's leaves to tell, by equal tags, which
// leaves an edit left unchanged. A leaf's tag is the AES-GCM tag of
// the leaf passed as additional data with empty plaintext, under a key
// drawn for this tagger alone: GHASH is a universal hash keyed by it,
// so two different leaves (chosen without the key) share a tag with
// probability at most 1025/2¹²⁸ — a 16 KiB leaf is 1 024 GHASH blocks
// and a length block. The fixed nonce only adds E_K(nonce) to every
// tag, which cancels when two tags are compared. Neither key nor tags
// leave the process, so nobody can forge against them; SHA-256
// (protocol.Sum) stays the file identity the server checks.
type leafTagger struct{ aead cipher.AEAD }

func newLeafTagger() leafTagger {
	var key [16]byte
	rand.Read(key[:]) // never fails: crypto/rand.Read crashes the program instead
	block, err := aes.NewCipher(key[:])
	if err != nil {
		panic(err) // a 16-byte key is always valid
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		panic(err) // AES has GCM's block size
	}
	return leafTagger{aead}
}

// tags returns data's leaf tags for a signature at block size bs, one
// per leaf of protocol's grid, each sealed straight into its slot: the
// tagger holds no scratch, so goroutines may share it. It returns nil
// for a file of at most one leaf, and when bs does not divide a leaf,
// since such a signature's scan cannot skip leaves.
func (lt leafTagger) tags(data []byte, bs int) []leafTag {
	n := protocol.NumLeaves(len(data))
	if n == 0 || protocol.LeafSize%bs != 0 {
		return nil
	}
	tags := make([]leafTag, n)
	for k := range tags {
		leaf := data[k*protocol.LeafSize : min((k+1)*protocol.LeafSize, len(data))]
		lt.aead.Seal(tags[k][:0], leafNonce[:], nil, leaf)
	}
	return tags
}

// clientSig is delta.Sign of the content a file held at version, as far
// as this client knows: the signature its last full upload or delta
// exchange of the file ended on, and beside it the content's leaf tags
// (nil when the content has none, or the signature's block does not
// divide a leaf), which tell the next delta's scan
// (delta.ComputeLeaves) which leaves an edit left unchanged.
type clientSig struct {
	name    string
	version uint64
	sig     delta.Signature
	tags    []leafTag
}

// size is what the entry costs against sigCacheBudget.
func (cs *clientSig) size() int {
	return cs.sig.WireSize() + len(cs.tags)*len(leafTag{})
}

// sigCache is the client-held half of the version-conditional delta:
// per file, the signature and version the client's last acknowledged
// exchange on it ended on, so that the next modify can cut its delta
// without asking the server for a signature first. Entries come from
// the client's own bytes: a full upload signs and tags what it sent
// (dedup hits and resumed uploads too — the client holds the content
// either way), and a delta exchange carries its basis signature forward
// with delta.Resign and tags what it sent. A served SignatureMsg is only
// ever the fallback, once an entry is missing or refused; the exchange
// on it leaves tags like any other. An entry is a guess — another
// device may have moved the file — and the server's version check is
// what makes a wrong guess harmless. Least recently used entries are
// evicted once the entries' sizes exceed sigCacheBudget. The zero
// value is an empty cache.
type sigCache struct {
	ll      list.List // of *clientSig, front = most recently used
	entries map[string]*list.Element
	bytes   int
}

// get returns the remembered signature for name, or nil.
func (sc *sigCache) get(name string) *clientSig {
	el, ok := sc.entries[name]
	if !ok {
		return nil
	}
	sc.ll.MoveToFront(el)
	return el.Value.(*clientSig)
}

// put remembers sig and tags as name's content at version, replacing
// what was remembered before. An entry larger than the whole budget is
// not kept.
func (sc *sigCache) put(name string, version uint64, sig delta.Signature, tags []leafTag) {
	sc.drop(name)
	cs := &clientSig{name: name, version: version, sig: sig, tags: tags}
	size := cs.size()
	if size > sigCacheBudget {
		return
	}
	if sc.entries == nil {
		sc.entries = make(map[string]*list.Element)
	}
	sc.entries[name] = sc.ll.PushFront(cs)
	sc.bytes += size
	for sc.bytes > sigCacheBudget {
		sc.drop(sc.ll.Back().Value.(*clientSig).name)
	}
}

// drop forgets name's signature, if one is remembered.
func (sc *sigCache) drop(name string) {
	el, ok := sc.entries[name]
	if !ok {
		return
	}
	sc.bytes -= sc.ll.Remove(el).(*clientSig).size()
	delete(sc.entries, name)
}

// dropUnless forgets name's signature unless it describes version.
func (sc *sigCache) dropUnless(name string, version uint64) {
	if el, ok := sc.entries[name]; ok && el.Value.(*clientSig).version != version {
		sc.drop(name)
	}
}

// clear forgets everything.
func (sc *sigCache) clear() {
	sc.ll.Init()
	clear(sc.entries)
	sc.bytes = 0
}
