package watchsync

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"cloudsync/internal/planner"
)

// baselineDoc is the on-disk shape of the persisted baseline. Content
// hashes (protocol.Sum) are hex strings so the file stays inspectable
// with plain tools. Earlier formats held other hashes and are refused:
// format 1 MD5s under "md5", format 2 flat SHA-256 prefixes.
type baselineDoc struct {
	Format int                     `json:"format"`
	Files  map[string]baselineFile `json:"files"`
}

type baselineFile struct {
	Size    int64  `json:"size"`
	Hash    string `json:"hash"`
	Version uint64 `json:"version"`
}

const baselineFormat = 3

// LoadBaseline reads the persisted last-synced snapshot. A missing
// file is a fresh start, not an error: the daemon's first run begins
// from an empty baseline.
func LoadBaseline(path string) (map[string]planner.FileMeta, error) {
	raw, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return map[string]planner.FileMeta{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("watchsync: reading baseline: %w", err)
	}
	var doc baselineDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("watchsync: parsing baseline %s: %w", path, err)
	}
	if doc.Format != baselineFormat {
		return nil, fmt.Errorf("watchsync: baseline %s has format %d, want %d", path, doc.Format, baselineFormat)
	}
	out := make(map[string]planner.FileMeta, len(doc.Files))
	for name, f := range doc.Files {
		m := planner.FileMeta{Size: f.Size, Version: f.Version}
		sum, err := hex.DecodeString(f.Hash)
		if err != nil || len(sum) != len(m.Hash) {
			return nil, fmt.Errorf("watchsync: baseline %s: bad hash for %q", path, name)
		}
		copy(m.Hash[:], sum)
		out[name] = m
	}
	return out, nil
}

// SaveBaseline persists the snapshot atomically: it writes a temporary
// file in the same directory and renames it over the target, so a
// crash mid-save leaves either the old baseline or the new one —
// never a torn file. The planner's idempotence guarantees either
// outcome is safe: re-planning from the stale baseline just re-derives
// no-ops for everything already synced.
func SaveBaseline(path string, files map[string]planner.FileMeta) error {
	doc := baselineDoc{Format: baselineFormat, Files: make(map[string]baselineFile, len(files))}
	for name, m := range files {
		doc.Files[name] = baselineFile{
			Size:    m.Size,
			Hash:    hex.EncodeToString(m.Hash[:]),
			Version: m.Version,
		}
	}
	raw, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return fmt.Errorf("watchsync: encoding baseline: %w", err)
	}
	raw = append(raw, '\n')

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".baseline-*.tmp")
	if err != nil {
		return fmt.Errorf("watchsync: saving baseline: %w", err)
	}
	tmpName := tmp.Name()
	_, werr := tmp.Write(raw)
	serr := tmp.Sync()
	cerr := tmp.Close()
	for _, e := range []error{werr, serr, cerr} {
		if e != nil {
			os.Remove(tmpName)
			return fmt.Errorf("watchsync: saving baseline: %w", e)
		}
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("watchsync: saving baseline: %w", err)
	}
	return nil
}
