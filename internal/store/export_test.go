package store

import "fmt"

// Versions reports how many versions of key have ever been stored,
// including tombstoned ones.
func (s *REST) Versions(key string) int {
	r := s.objects[key]
	if r == nil {
		return 0
	}
	return len(r.versions)
}

// Rollback restores version v (0-based) of key as the current version
// and clears any tombstone — the user-facing data-recovery feature fake
// deletion enables.
func (s *REST) Rollback(key string, v int) error {
	r := s.objects[key]
	if r == nil || v < 0 || v >= len(r.versions) {
		return fmt.Errorf("store: %q: no version %d", key, v)
	}
	r.versions = append(r.versions, r.versions[v])
	r.deleted = false
	return nil
}

// StoredBytes reports the total size of all live current versions.
func (s *REST) StoredBytes() int64 {
	var n int64
	for _, r := range s.objects {
		if !r.deleted && len(r.versions) > 0 {
			n += r.versions[len(r.versions)-1].Size()
		}
	}
	return n
}
