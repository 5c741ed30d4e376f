// Package store implements the cloud-side storage substrate: a RESTful
// object store with full-file PUT/GET/DELETE semantics — the Amazon
// S3 / Azure / OpenStack Swift model the paper says most services build
// on — plus the mid-layer designs that bridge the gap between full-file
// REST interfaces and incremental sync (§ 4.3):
//
//   - FullFileLayer: no mid-layer; MODIFY is a fresh PUT of the whole
//     file (what full-file-sync services do).
//   - TransformLayer: MODIFY becomes GET + PUT + DELETE, reconstructing
//     the new version server-side from the old object and the client's
//     delta (what Dropbox does, per [25, 36]).
//   - ChunkObjectLayer: every chunk is its own object; MODIFY deletes
//     replaced chunk objects and PUTs new ones (the Cumulus design [43]).
//
// Deletion is "fake deletion": objects are tombstoned, never erased, so
// version rollback keeps working — the behaviour Experiment 2 observes.
package store

import (
	"fmt"

	"cloudsync/internal/chunker"
	"cloudsync/internal/content"
)

// Stats counts REST operations and internal data movement.
type Stats struct {
	Puts, Gets, Deletes int64
	// BytesIn is data written by PUTs; BytesOut is data read by GETs.
	// Their sum is the store-internal traffic a mid-layer generates.
	BytesIn, BytesOut int64
}

// InternalBytes is the total data moved through the REST interface.
func (s Stats) InternalBytes() int64 { return s.BytesIn + s.BytesOut }

type record struct {
	versions []*content.Blob
	deleted  bool
}

// REST is an in-memory object store with full-file REST semantics.
type REST struct {
	objects map[string]*record
	stats   Stats
}

// NewREST returns an empty store.
func NewREST() *REST {
	return &REST{objects: make(map[string]*record)}
}

// Put stores a new version of the object at key. Putting to a
// tombstoned key revives it — REST stores have no modify verb, so this
// is also how every mid-layer writes.
func (s *REST) Put(key string, blob *content.Blob) {
	if blob == nil {
		panic("store: Put with nil blob")
	}
	r := s.objects[key]
	if r == nil {
		r = &record{}
		s.objects[key] = r
	}
	r.versions = append(r.versions, blob)
	r.deleted = false
	s.stats.Puts++
	s.stats.BytesIn += blob.Size()
}

// Get returns the current version of the object.
func (s *REST) Get(key string) (*content.Blob, error) {
	r := s.objects[key]
	if r == nil || len(r.versions) == 0 {
		return nil, fmt.Errorf("store: %q: no such object", key)
	}
	if r.deleted {
		return nil, fmt.Errorf("store: %q: object deleted", key)
	}
	blob := r.versions[len(r.versions)-1]
	s.stats.Gets++
	s.stats.BytesOut += blob.Size()
	return blob, nil
}

// Delete tombstones the object. The content stays on disk ("fake
// deletion"), which is why Experiment 2 sees negligible traffic and why
// version rollback works.
func (s *REST) Delete(key string) error {
	r := s.objects[key]
	if r == nil || len(r.versions) == 0 {
		return fmt.Errorf("store: %q: no such object", key)
	}
	r.deleted = true
	s.stats.Deletes++
	return nil
}

// Exists reports whether key holds a live (non-tombstoned) object.
func (s *REST) Exists(key string) bool {
	r := s.objects[key]
	return r != nil && len(r.versions) > 0 && !r.deleted
}

// Stats returns a copy of the operation counters.
func (s *REST) Stats() Stats { return s.stats }

// MidLayer is the strategy a sync service uses to apply file operations
// to the REST store. Implementations report the store-internal traffic
// each operation generated, which is what the § 4.3 mid-layer ablation
// compares.
type MidLayer interface {
	// Name identifies the design in ablation output.
	Name() string
	// Create stores a new file.
	Create(key string, blob *content.Blob) (internal int64, err error)
	// Modify replaces the file's content; dirty describes the changed
	// byte ranges relative to the stored version (incremental designs
	// exploit it, full-file designs ignore it).
	Modify(key string, blob *content.Blob, dirty []chunker.Range) (internal int64, err error)
	// Delete removes the file.
	Delete(key string) (internal int64, err error)
	// Read returns the file's current content.
	Read(key string) (*content.Blob, int64, error)
}

// FullFileLayer is the no-mid-layer baseline: MODIFY = PUT of the whole
// new version, then DELETE of nothing (the old version simply becomes
// history).
type FullFileLayer struct {
	Store *REST
}

// Name implements MidLayer.
func (l *FullFileLayer) Name() string { return "full-file" }

// Create implements MidLayer.
func (l *FullFileLayer) Create(key string, blob *content.Blob) (int64, error) {
	before := l.Store.Stats()
	l.Store.Put(key, blob)
	return l.Store.Stats().InternalBytes() - before.InternalBytes(), nil
}

// Modify implements MidLayer: the whole new version is PUT regardless
// of how little changed.
func (l *FullFileLayer) Modify(key string, blob *content.Blob, _ []chunker.Range) (int64, error) {
	if !l.Store.Exists(key) {
		return 0, fmt.Errorf("store: full-file modify of missing %q", key)
	}
	return l.Create(key, blob)
}

// Delete implements MidLayer.
func (l *FullFileLayer) Delete(key string) (int64, error) {
	return 0, l.Store.Delete(key)
}

// Read implements MidLayer.
func (l *FullFileLayer) Read(key string) (*content.Blob, int64, error) {
	before := l.Store.Stats()
	blob, err := l.Store.Get(key)
	if err != nil {
		return nil, 0, err
	}
	return blob, l.Store.Stats().InternalBytes() - before.InternalBytes(), nil
}

// TransformLayer implements the GET + PUT + DELETE transform: each file
// version lives under its own object key; to apply an incremental
// modification the mid-layer GETs the old version object (the basis to
// patch), PUTs the patched result as a fresh object, and DELETEs the
// old one. The client saved network traffic; the provider paid
// store-internal traffic of old size + new size per modification.
type TransformLayer struct {
	Store *REST

	versions map[string]int // key → current version number
}

// Name implements MidLayer.
func (l *TransformLayer) Name() string { return "get-put-delete" }

func (l *TransformLayer) init() {
	if l.versions == nil {
		l.versions = make(map[string]int)
	}
}

func (l *TransformLayer) versionKey(key string, v int) string {
	return fmt.Sprintf("%s@%d", key, v)
}

// Create implements MidLayer.
func (l *TransformLayer) Create(key string, blob *content.Blob) (int64, error) {
	l.init()
	before := l.Store.Stats()
	l.versions[key] = 0
	l.Store.Put(l.versionKey(key, 0), blob)
	return l.Store.Stats().InternalBytes() - before.InternalBytes(), nil
}

// Modify implements MidLayer: GET the basis version, PUT the patched
// result as the next version, DELETE the basis object.
func (l *TransformLayer) Modify(key string, blob *content.Blob, _ []chunker.Range) (int64, error) {
	l.init()
	v, ok := l.versions[key]
	if !ok {
		return 0, fmt.Errorf("store: transform modify of missing %q", key)
	}
	before := l.Store.Stats()
	if _, err := l.Store.Get(l.versionKey(key, v)); err != nil { // GET basis
		return 0, fmt.Errorf("store: transform modify: %w", err)
	}
	l.Store.Put(l.versionKey(key, v+1), blob) // PUT patched version
	if err := l.Store.Delete(l.versionKey(key, v)); err != nil {
		return 0, err
	}
	l.versions[key] = v + 1
	return l.Store.Stats().InternalBytes() - before.InternalBytes(), nil
}

// Delete implements MidLayer.
func (l *TransformLayer) Delete(key string) (int64, error) {
	l.init()
	v, ok := l.versions[key]
	if !ok {
		return 0, fmt.Errorf("store: transform delete of missing %q", key)
	}
	delete(l.versions, key)
	return 0, l.Store.Delete(l.versionKey(key, v))
}

// Read implements MidLayer.
func (l *TransformLayer) Read(key string) (*content.Blob, int64, error) {
	l.init()
	v, ok := l.versions[key]
	if !ok {
		return nil, 0, fmt.Errorf("store: transform read of missing %q", key)
	}
	before := l.Store.Stats()
	blob, err := l.Store.Get(l.versionKey(key, v))
	if err != nil {
		return nil, 0, err
	}
	return blob, l.Store.Stats().InternalBytes() - before.InternalBytes(), nil
}

// ChunkObjectLayer stores every chunk of a file as a separate object
// (the Cumulus design): a modification PUTs only the dirty chunks and
// updates a metadata object, at the cost of per-chunk object overhead
// and a more complex namespace.
type ChunkObjectLayer struct {
	Store     *REST
	ChunkSize int
	// MetaBytesPerChunk approximates the metadata object entry cost per
	// chunk reference.
	MetaBytesPerChunk int

	chunks map[string]int // key → number of chunk objects
}

// Name implements MidLayer.
func (l *ChunkObjectLayer) Name() string { return "chunk-objects" }

func (l *ChunkObjectLayer) init() {
	if l.chunks == nil {
		l.chunks = make(map[string]int)
	}
	if l.ChunkSize <= 0 {
		panic("store: ChunkObjectLayer with non-positive ChunkSize")
	}
	if l.MetaBytesPerChunk <= 0 {
		l.MetaBytesPerChunk = 48
	}
}

func (l *ChunkObjectLayer) chunkKey(key string, i int64) string {
	return fmt.Sprintf("%s/chunk/%d", key, i)
}

func (l *ChunkObjectLayer) putMeta(key string, nChunks int64) {
	l.Store.Put(key+"/meta", content.Zeros(nChunks*int64(l.MetaBytesPerChunk)))
}

// Create implements MidLayer.
func (l *ChunkObjectLayer) Create(key string, blob *content.Blob) (int64, error) {
	l.init()
	before := l.Store.Stats()
	data := blob.Bytes()
	// Only the block geometry matters here; the chunk objects carry the
	// content, so fingerprinting every block (chunker.Fixed) would be
	// pure waste.
	blocks := chunker.Boundaries(int64(len(data)), l.ChunkSize)
	for i, b := range blocks {
		l.Store.Put(l.chunkKey(key, int64(i)), content.FromBytes(data[b.Off:b.Off+b.Len]))
	}
	l.chunks[key] = len(blocks)
	l.putMeta(key, int64(len(blocks)))
	return l.Store.Stats().InternalBytes() - before.InternalBytes(), nil
}

// Modify implements MidLayer: only chunks overlapping dirty ranges are
// re-PUT; their old objects are DELETEd.
func (l *ChunkObjectLayer) Modify(key string, blob *content.Blob, dirty []chunker.Range) (int64, error) {
	l.init()
	old, ok := l.chunks[key]
	if !ok {
		return 0, fmt.Errorf("store: chunk modify of missing %q", key)
	}
	before := l.Store.Stats()
	data := blob.Bytes()
	blocks := chunker.Boundaries(int64(len(data)), l.ChunkSize)
	norm := chunker.Normalize(dirty)
	for i, b := range blocks {
		start, end := b.Off, b.Off+b.Len
		touched := i >= old // appended chunks are always new
		for _, r := range norm {
			if r.Off < end && r.Off+r.Len > start {
				touched = true
				break
			}
		}
		if touched {
			ck := l.chunkKey(key, int64(i))
			if l.Store.Exists(ck) {
				if err := l.Store.Delete(ck); err != nil {
					return 0, err
				}
			}
			l.Store.Put(ck, content.FromBytes(data[start:end]))
		}
	}
	for i := len(blocks); i < old; i++ { // file shrank
		if err := l.Store.Delete(l.chunkKey(key, int64(i))); err != nil {
			return 0, err
		}
	}
	l.chunks[key] = len(blocks)
	l.putMeta(key, int64(len(blocks)))
	return l.Store.Stats().InternalBytes() - before.InternalBytes(), nil
}

// Delete implements MidLayer: tombstones every chunk and the metadata
// object.
func (l *ChunkObjectLayer) Delete(key string) (int64, error) {
	l.init()
	n, ok := l.chunks[key]
	if !ok {
		return 0, fmt.Errorf("store: chunk delete of missing %q", key)
	}
	for i := 0; i < n; i++ {
		if err := l.Store.Delete(l.chunkKey(key, int64(i))); err != nil {
			return 0, err
		}
	}
	if err := l.Store.Delete(key + "/meta"); err != nil {
		return 0, err
	}
	delete(l.chunks, key)
	return 0, nil
}

// Read implements MidLayer: GETs every chunk and reassembles.
func (l *ChunkObjectLayer) Read(key string) (*content.Blob, int64, error) {
	l.init()
	n, ok := l.chunks[key]
	if !ok {
		return nil, 0, fmt.Errorf("store: chunk read of missing %q", key)
	}
	before := l.Store.Stats()
	var data []byte
	for i := 0; i < n; i++ {
		blob, err := l.Store.Get(l.chunkKey(key, int64(i)))
		if err != nil {
			return nil, 0, err
		}
		data = append(data, blob.Bytes()...)
	}
	return content.FromBytes(data),
		l.Store.Stats().InternalBytes() - before.InternalBytes(), nil
}
