package cloud

import "cloudsync/internal/dedup"

// DedupIndex exposes the deduplication index (for experiment
// statistics).
func (c *Cloud) DedupIndex() *dedup.Index { return c.index }
