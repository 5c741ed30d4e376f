// Package cloud implements the service back end: per-user namespaces,
// a versioned file table with fake deletion, a deduplication index, a
// storage compression policy, and (optionally) a REST-store mid-layer
// that records what each sync costs the provider internally.
//
// The cloud is a passive actor: the sync client calls it synchronously
// while composing a session, and models the network and server time of
// those calls itself (internal/netem carries the bytes; Config.
// ProcessingTime carries the commit latency).
package cloud

import (
	"crypto/md5"
	"fmt"
	"hash/maphash"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"cloudsync/internal/chunker"
	"cloudsync/internal/comp"
	"cloudsync/internal/content"
	"cloudsync/internal/dedup"
	"cloudsync/internal/store"
)

// Config selects the cloud-side design choices.
type Config struct {
	// DedupGranularity is the unit of duplicate detection (Table 9).
	DedupGranularity dedup.Granularity
	// DedupBlockSize applies when granularity is Block (Dropbox: 4 MB).
	DedupBlockSize int
	// DedupCrossUser shares the index across users (Ubuntu One) rather
	// than per user (Dropbox).
	DedupCrossUser bool
	// StoreCompression is how the cloud stores and serves content; the
	// level actually used for a download is negotiated down to the
	// client's capability.
	StoreCompression comp.Level
	// ProcessingTime is the fixed server-side latency per sync session
	// (metadata DB work, commit fan-out). It is a large contributor to
	// the natural batching of § 6.2.
	ProcessingTime time.Duration
	// MidLayer, when set, applies every committed operation to a REST
	// object store so experiments can account provider-internal traffic
	// (§ 4.3). Files beyond content.MaterializeLimit skip the mid-layer.
	MidLayer store.MidLayer
}

func (c Config) validate() {
	if c.DedupGranularity == dedup.Block && c.DedupBlockSize <= 0 {
		panic("cloud: block dedup requires DedupBlockSize")
	}
	if c.ProcessingTime < 0 {
		panic("cloud: negative ProcessingTime")
	}
}

// Entry is one file in a user's cloud namespace.
type Entry struct {
	ID      uint64
	Name    string
	Version uint64
	Blob    *content.Blob
	// StoredSize is the byte volume the cloud actually keeps for this
	// version (after its storage compression).
	StoredSize int64
	// Deleted marks a fake deletion: attributes flipped, content kept.
	Deleted bool
}

// cloudShards stripes the per-user file tables. Must be a power of two.
const cloudShards = 32

// userSeed keys the user→shard hash; one process-wide seed keeps a
// given user on the same shard across every Cloud instance.
var userSeed = maphash.MakeSeed()

type cloudShard struct {
	mu sync.RWMutex
	// Both maps are allocated on first write: setups are built per
	// experiment cell, so untouched shards must stay free.
	files       map[string]map[string]*Entry // user → name → entry
	subscribers map[string][]subscriber
}

// Cloud is the service back end. The file tables are striped across
// power-of-two shards keyed by user, and the counters are atomic, so
// independent users may sync concurrently (one goroutine per user). A
// single user's entries are not protected against concurrent mutation
// by multiple goroutines — the per-user-partition replay model never
// does that.
type Cloud struct {
	cfg    Config
	index  *dedup.Index
	shards [cloudShards]cloudShard
	nextID atomic.Uint64

	// Uploads counts committed upload sessions; DedupSkips counts
	// uploads fully avoided by deduplication.
	Uploads, DedupSkips atomic.Int64
}

type subscriber struct {
	device string
	fn     func(e *Entry, deleted bool)
}

// New constructs a cloud with the given design choices.
func New(cfg Config) *Cloud {
	cfg.validate()
	return &Cloud{
		cfg:   cfg,
		index: dedup.NewIndex(cfg.DedupCrossUser),
	}
}

// Config returns the cloud's configuration.
func (c *Cloud) Config() Config { return c.cfg }

// DedupIndex exposes the deduplication index (for experiment
// statistics).
func (c *Cloud) DedupIndex() *dedup.Index { return c.index }

func (c *Cloud) shard(user string) *cloudShard {
	return &c.shards[maphash.String(userSeed, user)&(cloudShards-1)]
}

// ns returns the user's namespace, creating it if needed. The caller
// must hold the shard's write lock.
func (sh *cloudShard) ns(user string) map[string]*Entry {
	if sh.files == nil {
		sh.files = make(map[string]map[string]*Entry)
	}
	m := sh.files[user]
	if m == nil {
		m = make(map[string]*Entry)
		sh.files[user] = m
	}
	return m
}

// File looks up a live entry.
func (c *Cloud) File(user, name string) (*Entry, bool) {
	sh := c.shard(user)
	sh.mu.RLock()
	e, ok := sh.files[user][name]
	sh.mu.RUnlock()
	if !ok || e.Deleted {
		return nil, false
	}
	return e, ok
}

// fileFingerprint derives the full-file fingerprint of a blob: real MD5
// for literal content (memoized on the blob, so the probe and the
// commit of one upload hash it once), identity-based MD5 for descriptor
// blobs (same descriptor ⇒ same content ⇒ same fingerprint).
func fileFingerprint(blob *content.Blob) dedup.Fingerprint {
	if blob.Kind() == content.KindBytes {
		return blob.MD5()
	}
	return md5.Sum([]byte(blob.Identity()))
}

// blockFingerprints derives per-block fingerprints. Literal blobs get
// real block MD5s. Descriptor blobs get analytic fingerprints derived
// from (kind, seed, block size, index, block length): by the
// prefix-stability of descriptor content, a block's bytes are fully
// determined by that tuple, so equal tuples mean equal content — at a
// tiny fraction of the cost of materializing and hashing, which
// matters when a frequently-appended file is probed on every sync.
func blockFingerprints(blob *content.Blob, blockSize int) []dedup.Fingerprint {
	if blob.Kind() == content.KindBytes {
		// content memoizes the sums per (blob, blockSize), so the
		// probe/commit pair of one upload chunks the content once.
		return content.BlockFingerprints(blob, blockSize)
	}
	n := chunker.NumBlocks(blob.Size(), blockSize)
	out := make([]dedup.Fingerprint, n)
	// The hashed tuple is "gen:<kind>:<seed>:bs<blockSize>#<idx>:<len>",
	// assembled by hand into one stack buffer: the bytes are identical
	// to the fmt.Sprintf form, so fingerprints are stable, but a probe
	// of a large appended file no longer allocates per block.
	var buf [96]byte
	prefix := append(buf[:0], "gen:"...)
	prefix = strconv.AppendUint(prefix, uint64(blob.Kind()), 10)
	prefix = append(prefix, ':')
	prefix = strconv.AppendInt(prefix, blob.Seed(), 10)
	prefix = append(prefix, ":bs"...)
	prefix = strconv.AppendInt(prefix, int64(blockSize), 10)
	prefix = append(prefix, '#')
	for i := range out {
		length := int64(blockSize)
		if rem := blob.Size() - int64(i)*int64(blockSize); rem < length {
			length = rem
		}
		b := strconv.AppendInt(prefix, int64(i), 10)
		b = append(b, ':')
		b = strconv.AppendInt(b, length, 10)
		out[i] = md5.Sum(b)
	}
	return out
}

// UploadDecision is the cloud's answer to an upload probe.
type UploadDecision struct {
	// SkipAll: the content is fully deduplicated; send no data.
	SkipAll bool
	// MissingBlocks is the number of blocks that must still be sent
	// (block-granularity dedup); equal to total blocks when nothing
	// matched.
	MissingBlocks int
	// TotalBlocks is the number of blocks probed (0 for full-file
	// granularity).
	TotalBlocks int
	// IndexFingerprints is how many fingerprints the client had to send
	// for this probe — they size the index-update message.
	IndexFingerprints int
}

// ProbeUpload consults the dedup index for an upcoming upload. With
// useDedup false (web access, or services without dedup) the probe is a
// no-op and everything must be sent.
func (c *Cloud) ProbeUpload(user string, blob *content.Blob, useDedup bool) UploadDecision {
	if !useDedup || c.cfg.DedupGranularity == dedup.None || blob.Size() == 0 {
		return UploadDecision{}
	}
	switch c.cfg.DedupGranularity {
	case dedup.FullFile:
		fp := fileFingerprint(blob)
		if c.index.Lookup(user, fp, blob.Size()) {
			return UploadDecision{SkipAll: true, IndexFingerprints: 1}
		}
		return UploadDecision{IndexFingerprints: 1}
	case dedup.Block:
		fps := blockFingerprints(blob, c.cfg.DedupBlockSize)
		missing := 0
		bs := int64(c.cfg.DedupBlockSize)
		for i, fp := range fps {
			size := bs
			if rem := blob.Size() - int64(i)*bs; rem < size {
				size = rem
			}
			if !c.index.Lookup(user, fp, size) {
				missing++
			}
		}
		return UploadDecision{
			SkipAll:           missing == 0,
			MissingBlocks:     missing,
			TotalBlocks:       len(fps),
			IndexFingerprints: len(fps),
		}
	default:
		return UploadDecision{}
	}
}

// Commit finalizes an upload: records the version, updates the dedup
// index, and (when configured) applies the operation to the REST store
// mid-layer. dirty describes the changed ranges for incremental
// mid-layers; create passes nil. It returns the committed entry.
func (c *Cloud) Commit(user, name string, blob *content.Blob, dirty []chunker.Range) *Entry {
	if blob == nil {
		panic("cloud: Commit with nil blob")
	}
	sh := c.shard(user)
	sh.mu.Lock()
	ns := sh.ns(user)
	e, existed := ns[name]
	if !existed {
		e = &Entry{ID: c.nextID.Add(1), Name: name}
		ns[name] = e
	}
	isCreate := !existed || e.Deleted
	e.Blob = blob
	e.Version++
	e.Deleted = false
	e.StoredSize = comp.Size(blob, c.cfg.StoreCompression)
	sh.mu.Unlock()
	c.Uploads.Add(1)

	c.recordDedup(user, blob)
	// The mid-layer store is not itself concurrency-safe; configs that
	// set one (the ablation experiments) replay sequentially.
	c.applyMidLayer(user, name, blob, dirty, isCreate)
	return e
}

func (c *Cloud) recordDedup(user string, blob *content.Blob) {
	switch c.cfg.DedupGranularity {
	case dedup.FullFile:
		c.index.Add(user, fileFingerprint(blob), blob.Size())
	case dedup.Block:
		bs := int64(c.cfg.DedupBlockSize)
		for i, fp := range blockFingerprints(blob, c.cfg.DedupBlockSize) {
			size := bs
			if rem := blob.Size() - int64(i)*bs; rem < size {
				size = rem
			}
			c.index.Add(user, fp, size)
		}
	}
}

func (c *Cloud) applyMidLayer(user, name string, blob *content.Blob, dirty []chunker.Range, isCreate bool) {
	if c.cfg.MidLayer == nil || blob.Size() > content.MaterializeLimit {
		return
	}
	key := user + "/" + name
	var err error
	if isCreate {
		_, err = c.cfg.MidLayer.Create(key, blob)
	} else {
		_, err = c.cfg.MidLayer.Modify(key, blob, dirty)
	}
	if err != nil {
		panic(fmt.Sprintf("cloud: mid-layer %s: %v", c.cfg.MidLayer.Name(), err))
	}
}

// RecordSkippedUpload notes a fully deduplicated upload: the file table
// still gains the version (the user sees the file), but no data moved.
func (c *Cloud) RecordSkippedUpload(user, name string, blob *content.Blob) *Entry {
	e := c.Commit(user, name, blob, nil)
	c.DedupSkips.Add(1)
	return e
}

// Delete fake-deletes a file: attributes change, content stays (version
// history remains available for rollback).
func (c *Cloud) Delete(user, name string) error {
	sh := c.shard(user)
	sh.mu.Lock()
	e, ok := sh.files[user][name]
	if !ok || e.Deleted {
		sh.mu.Unlock()
		return fmt.Errorf("cloud: %s/%s: no such file", user, name)
	}
	e.Deleted = true
	e.Version++
	sh.mu.Unlock()
	if c.cfg.MidLayer != nil && e.Blob != nil && e.Blob.Size() <= content.MaterializeLimit {
		if _, err := c.cfg.MidLayer.Delete(user + "/" + name); err != nil {
			panic(fmt.Sprintf("cloud: mid-layer delete: %v", err))
		}
	}
	return nil
}

// Subscribe registers a device's change callback: NotifyPeers invokes
// it for every change the same user commits from a different device —
// the notification fan-out of the paper's Fig. 1.
func (c *Cloud) Subscribe(user, device string, fn func(e *Entry, deleted bool)) {
	if fn == nil {
		panic("cloud: Subscribe with nil callback")
	}
	sh := c.shard(user)
	sh.mu.Lock()
	if sh.subscribers == nil {
		sh.subscribers = make(map[string][]subscriber)
	}
	sh.subscribers[user] = append(sh.subscribers[user], subscriber{device: device, fn: fn})
	sh.mu.Unlock()
}

// NotifyPeers fans a committed change out to the user's other devices.
// The originating device is skipped. Callbacks run outside the shard
// lock — they re-enter the cloud (File, ServeSize) to serve downloads.
func (c *Cloud) NotifyPeers(user, origin string, e *Entry, deleted bool) {
	sh := c.shard(user)
	sh.mu.RLock()
	subs := sh.subscribers[user]
	sh.mu.RUnlock()
	for _, sub := range subs {
		if sub.device == origin {
			continue
		}
		sub.fn(e, deleted)
	}
}

// ServeSize reports the bytes the cloud sends to deliver the entry's
// content to a client that can decompress at most level — the download
// payload of Experiment 4's DN phase. The effective level is the weaker
// of the store's and the client's.
func (c *Cloud) ServeSize(e *Entry, clientLevel comp.Level) int64 {
	level := c.cfg.StoreCompression
	if clientLevel < level {
		level = clientLevel
	}
	return comp.Size(e.Blob, level)
}
