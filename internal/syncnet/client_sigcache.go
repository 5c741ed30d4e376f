package syncnet

import (
	"container/list"

	"cloudsync/internal/delta"
)

// sigCacheBudget bounds what one client remembers about the files it
// delta-syncs, in encoded signature bytes (delta.Signature.WireSize: 20
// per block, 0.24 % of the file at the default block size — the budget
// covers ≈ 1.7 GB of files; resident, a block signature is twice that).
const sigCacheBudget = 4 << 20

// clientSig is delta.Sign of the content a file held at version, as far
// as this client knows: the signature its last delta exchange on the
// file ended on.
type clientSig struct {
	name    string
	version uint64
	sig     delta.Signature
}

// sigCache is the client-held half of the version-conditional delta:
// per file, the signature and version the last delta exchange ended on,
// so that the next modify can cut its delta without asking the server
// for a signature first. Entries only ever come out of an acknowledged
// exchange (the served signature carried forward with delta.Resign),
// never out of a client-side Sign. It is a guess — another device may
// have moved the file — and the server's version check is what makes a
// wrong guess harmless. Least recently used entries are evicted once
// the encoded signatures exceed sigCacheBudget. The zero value is an
// empty cache.
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

// put remembers sig as name's content at version, replacing what was
// remembered before. A signature larger than the whole budget is not
// kept.
func (sc *sigCache) put(name string, version uint64, sig delta.Signature) {
	sc.drop(name)
	size := sig.WireSize()
	if size > sigCacheBudget {
		return
	}
	if sc.entries == nil {
		sc.entries = make(map[string]*list.Element)
	}
	sc.entries[name] = sc.ll.PushFront(&clientSig{name: name, version: version, sig: sig})
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
	sc.bytes -= sc.ll.Remove(el).(*clientSig).sig.WireSize()
	delete(sc.entries, name)
}

// clear forgets everything.
func (sc *sigCache) clear() {
	sc.ll.Init()
	clear(sc.entries)
	sc.bytes = 0
}
