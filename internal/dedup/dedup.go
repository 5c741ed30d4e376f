// Package dedup implements data-deduplication bookkeeping: the
// fingerprint index a cloud service consults before accepting an upload
// (§ 5.2 of the paper), and the ratio counters the trace analysis uses
// to compare deduplication granularities (Fig. 5).
//
// Granularity (full-file vs fixed block) and scope (same-user vs
// cross-user) are design choices of the service; the index itself just
// answers "has this scope already stored this fingerprint?".
package dedup

import (
	"bytes"
	"crypto/md5"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Fingerprint is a content fingerprint: an MD5 in the simulator, as in
// the paper's trace; the live server files protocol.Sum values here, a
// leaf-hashed SHA-256 of the same size.
type Fingerprint = [md5.Size]byte

// Granularity is the unit at which fingerprints are computed and
// compared.
type Granularity uint8

const (
	// None disables deduplication (Google Drive, OneDrive, Box,
	// SugarSync).
	None Granularity = iota
	// FullFile deduplicates whole files (Ubuntu One).
	FullFile
	// Block deduplicates fixed-size blocks (Dropbox, 4 MB).
	Block
)

// String names the granularity.
func (g Granularity) String() string {
	switch g {
	case None:
		return "no"
	case FullFile:
		return "full file"
	case Block:
		return "block"
	default:
		return fmt.Sprintf("granularity(%d)", uint8(g))
	}
}

// Stats reports index activity.
type Stats struct {
	// Hits counts lookups that found the fingerprint already stored
	// (upload avoided); Misses counts the rest.
	Hits, Misses int64
	// BytesAvoided is the payload volume dedup saved; BytesStored is
	// the unique volume accepted.
	BytesAvoided, BytesStored int64
}

// indexShards stripes the fingerprint tables so concurrent per-user
// replays don't serialize on one lock. Must be a power of two.
const indexShards = 32

type indexShard struct {
	mu sync.RWMutex
	// entries is allocated on the shard's first Add: setups are built
	// per experiment cell, so empty shards must stay free.
	entries map[string]map[Fingerprint]int64 // scope → fingerprint → size
}

// Index is a fingerprint store, safe for concurrent use. Fingerprints
// are striped across power-of-two shards keyed by the fingerprint bytes
// (MD5 output is uniform, so the stripes balance); statistics are
// plain atomic counters. The zero value is not usable; construct with
// NewIndex.
type Index struct {
	crossUser bool
	shards    [indexShards]indexShard

	hits, misses, bytesAvoided, bytesStored atomic.Int64
}

// NewIndex returns an empty index. With crossUser set, fingerprints are
// shared across all user scopes (one user's upload dedups against
// another's, as Ubuntu One did); otherwise each user deduplicates only
// against their own data (Dropbox after it disabled cross-user dedup).
func NewIndex(crossUser bool) *Index {
	return &Index{crossUser: crossUser}
}

// CrossUser reports the index's scope policy.
func (ix *Index) CrossUser() bool { return ix.crossUser }

func (ix *Index) scope(user string) string {
	if ix.crossUser {
		return ""
	}
	return user
}

func (ix *Index) shard(fp Fingerprint) *indexShard {
	return &ix.shards[binary.LittleEndian.Uint64(fp[:8])&(indexShards-1)]
}

// Lookup reports whether the fingerprint is already stored in the
// user's scope, updating hit/miss statistics.
func (ix *Index) Lookup(user string, fp Fingerprint, size int64) bool {
	sh := ix.shard(fp)
	sh.mu.RLock()
	_, ok := sh.entries[ix.scope(user)][fp]
	sh.mu.RUnlock()
	if ok {
		ix.hits.Add(1)
		ix.bytesAvoided.Add(size)
		return true
	}
	ix.misses.Add(1)
	return false
}

// Add stores a fingerprint in the user's scope. Adding an existing
// fingerprint is a no-op.
func (ix *Index) Add(user string, fp Fingerprint, size int64) {
	scope := ix.scope(user)
	sh := ix.shard(fp)
	sh.mu.Lock()
	if sh.entries == nil {
		sh.entries = make(map[string]map[Fingerprint]int64)
	}
	m := sh.entries[scope]
	if m == nil {
		m = make(map[Fingerprint]int64)
		sh.entries[scope] = m
	}
	_, dup := m[fp]
	if !dup {
		m[fp] = size
	}
	sh.mu.Unlock()
	if !dup {
		ix.bytesStored.Add(size)
	}
}

// IndexEntry is one stored fingerprint as enumerated by Entries. Scope
// is the internal deduplication scope: the user name for per-user
// indexes, "" for a cross-user index. Feeding an entry's scope back
// through Add on an index with the same scope policy reproduces the
// entry exactly — which is how the durable sync server snapshots and
// restores its index.
type IndexEntry struct {
	Scope string
	FP    Fingerprint
	Size  int64
}

// Entries enumerates every stored fingerprint in a deterministic order
// (scope, then fingerprint bytes). It takes each shard lock briefly;
// callers wanting a consistent cut hold their own state lock around it.
func (ix *Index) Entries() []IndexEntry {
	var out []IndexEntry
	for i := range ix.shards {
		sh := &ix.shards[i]
		sh.mu.RLock()
		for scope, m := range sh.entries {
			for fp, size := range m {
				out = append(out, IndexEntry{Scope: scope, FP: fp, Size: size})
			}
		}
		sh.mu.RUnlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Scope != out[j].Scope {
			return out[i].Scope < out[j].Scope
		}
		return bytes.Compare(out[i].FP[:], out[j].FP[:]) < 0
	})
	return out
}

// Stats returns a copy of the accumulated statistics.
func (ix *Index) Stats() Stats {
	return Stats{
		Hits:         ix.hits.Load(),
		Misses:       ix.misses.Load(),
		BytesAvoided: ix.bytesAvoided.Load(),
		BytesStored:  ix.bytesStored.Load(),
	}
}

// Unique reports the number of distinct fingerprints stored across all
// scopes.
func (ix *Index) Unique() int {
	n := 0
	for i := range ix.shards {
		sh := &ix.shards[i]
		sh.mu.RLock()
		for _, m := range sh.entries {
			n += len(m)
		}
		sh.mu.RUnlock()
	}
	return n
}

// RatioCounter measures the deduplication ratio of a data population:
// size of data before deduplication divided by size after, the metric
// plotted in Fig. 5. The zero value is ready to use.
type RatioCounter struct {
	seen          map[Fingerprint]struct{}
	before, after int64
}

// Reserve pre-sizes the fingerprint set for n expected units, so
// callers that know the population size (block counts derived from file
// sizes) avoid incremental map growth.
func (rc *RatioCounter) Reserve(n int) {
	if rc.seen == nil {
		rc.seen = make(map[Fingerprint]struct{}, n)
	}
}

// Add feeds one unit (file or block) with its fingerprint and size.
func (rc *RatioCounter) Add(fp Fingerprint, size int64) {
	if rc.seen == nil {
		rc.seen = make(map[Fingerprint]struct{})
	}
	rc.before += size
	if _, dup := rc.seen[fp]; !dup {
		rc.seen[fp] = struct{}{}
		rc.after += size
	}
}

// Before reports the total volume fed in.
func (rc *RatioCounter) Before() int64 { return rc.before }

// After reports the unique volume.
func (rc *RatioCounter) After() int64 { return rc.after }

// Ratio reports before/after (≥ 1). An empty counter reports 1.
func (rc *RatioCounter) Ratio() float64 {
	if rc.after == 0 {
		return 1
	}
	return float64(rc.before) / float64(rc.after)
}

// DuplicateFraction reports the share of volume that was duplicate:
// (before − after) / before. The paper's "full-file level duplication
// ratio reaches 18.8%" uses this form. An empty counter reports 0.
func (rc *RatioCounter) DuplicateFraction() float64 {
	if rc.before == 0 {
		return 0
	}
	return float64(rc.before-rc.after) / float64(rc.before)
}
