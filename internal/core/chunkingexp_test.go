package core

import (
	"strings"
	"testing"
)

func TestChunkingAblation(t *testing.T) {
	const versions = 6
	const fileSize = 1 << 20
	const editSize = 512
	cells := ChunkingAblation(versions, fileSize, editSize)
	if len(cells) != 3 {
		t.Fatalf("cells = %d", len(cells))
	}
	byName := map[string]ChunkingCell{}
	for _, c := range cells {
		byName[c.Scheme] = c
	}
	fixed := byName["fixed 8 KB blocks"]
	cdc := byName["content-defined (2/8/32 KB)"]
	rsync := byName["rsync delta (8 KB)"]

	// An insertion shifts every later fixed block boundary: nearly the
	// whole file re-uploads per edit.
	if fixed.Uploaded < int64(versions-1)*fileSize/4 {
		t.Errorf("fixed blocking uploaded %d; insertions should devastate it", fixed.Uploaded)
	}
	// CDC keeps most chunks stable: per-edit cost is a few chunks.
	if cdc.Uploaded > fixed.Uploaded/5 {
		t.Errorf("CDC uploaded %d vs fixed %d; want ≥ 5× better", cdc.Uploaded, fixed.Uploaded)
	}
	if perEdit := cdc.Uploaded / (versions - 1); perEdit > 200<<10 {
		t.Errorf("CDC per-edit volume %d, want bounded by a few chunks", perEdit)
	}
	// rsync's rolling match realigns too: small deltas (plus signature
	// downloads).
	if rsync.Uploaded > fixed.Uploaded/5 {
		t.Errorf("rsync uploaded %d vs fixed %d; want ≥ 5× better", rsync.Uploaded, fixed.Uploaded)
	}
	// First uploads are all roughly the file size.
	for _, c := range cells {
		if c.FirstVersion < fileSize*9/10 || c.FirstVersion > fileSize*11/10 {
			t.Errorf("%s: first upload %d, want ≈ %d", c.Scheme, c.FirstVersion, fileSize)
		}
	}
}

func TestChunkingAblationValidation(t *testing.T) {
	for _, c := range [][3]int64{{1, 1000, 10}, {3, 0, 10}, {3, 1000, 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ChunkingAblation(%v) did not panic", c)
				}
			}()
			ChunkingAblation(int(c[0]), c[1], int(c[2]))
		}()
	}
}

func TestRenderChunking(t *testing.T) {
	s := RenderChunking(ChunkingAblation(3, 256<<10, 256), 3, 256<<10, 256)
	if !strings.Contains(s, "content-defined") || !strings.Contains(s, "rsync") {
		t.Fatalf("render incomplete:\n%s", s)
	}
}
