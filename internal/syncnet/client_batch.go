package syncnet

import (
	"crypto/md5"
	"fmt"

	"cloudsync/internal/obs"
	"cloudsync/internal/protocol"
)

// Batched upload paths: the paper's batching remedy applied to the live
// protocol. A lockstep client pays one request/response round trip per
// file; for workloads dominated by tiny files that round trip — not
// bandwidth — is the bottleneck. UploadBundle coalesces a batch into a
// single framed exchange. It operates under the client's retry policy
// as one operation: a connection cut mid-batch reconnects and replays
// the batch, with the ledger retagging re-sent bytes as retransmit (and
// files committed by the broken attempt collapsing into dedup hits).
//
// Names within one batch must be distinct: the server keys the batch's
// entries by fileID, which is per name.

// FileUpload is one file of a batched upload.
type FileUpload struct {
	Name string
	Data []byte
}

// UploadBundle uploads a batch of small files as one Bundle message
// answered by one BundleReply: a single round trip and a single frame
// header for the whole batch. Payloads ride along unconditionally —
// the server detects dedup hits from the full-file hash and discards
// the redundant bytes — so the bundle trades a little upload bandwidth
// on hits for a round trip saved on every batch; it is meant for files
// small enough that the trade wins.
func (c *Client) UploadBundle(files []FileUpload) ([]UploadStats, error) {
	if len(files) == 0 {
		return nil, nil
	}
	c.op = c.tracer.Start("client.upload_bundle", obs.Int("files", int64(len(files))))
	in0, out0 := c.WireTotals()
	// The batch is fingerprinted and compressed once, outside the retry
	// loop, reusing one MD5 state across files — retries must not
	// recompute digests, and per-file md5.New allocations would dominate
	// tiny-file batches.
	if c.digest == nil {
		c.digest = md5.New()
	}
	entries := make([]protocol.BundleEntry, len(files))
	for i, f := range files {
		en := &entries[i]
		en.Name, en.Size = f.Name, int64(len(f.Data))
		c.digest.Reset()
		c.digest.Write(f.Data)
		c.digest.Sum(en.FileHash[:0])
		en.Payload = c.compress(f.Data)
	}
	stats := make([]UploadStats, len(files))
	err := c.withRetry(func(attempt int) error {
		return c.bundleExchange(entries, stats, attempt)
	})
	c.op.Set("attempts", stats[0].Attempts)
	c.endOp(in0, out0, err)
	if err != nil {
		return nil, err
	}
	return stats, nil
}

// bundleExchange sends entries as one Bundle and fills stats from the
// BundleReply: one attempt of UploadBundle, or of an Upload small
// enough to go inline.
func (c *Client) bundleExchange(entries []protocol.BundleEntry, stats []UploadStats, attempt int) error {
	for i := range entries {
		c.sigs.drop(entries[i].Name) // whole new content: nothing to carry over
	}
	if err := c.wc.send(&protocol.Bundle{Entries: entries}); err != nil {
		return err
	}
	m, err := c.read()
	if err != nil {
		return err
	}
	reply, ok := m.(*protocol.BundleReply)
	if !ok {
		return fmt.Errorf("syncnet: expected bundle reply, got %v", m.Type())
	}
	if len(reply.Results) != len(entries) {
		return fmt.Errorf("syncnet: bundle reply has %d results for %d entries", len(reply.Results), len(entries))
	}
	for i, r := range reply.Results {
		if !r.OK {
			// The server answered and rejected the entry; shaped as a
			// protocol error so the retry policy does not replay a
			// bundle the server will reject again.
			return &protocol.Error{Code: protocol.ErrBadRequest,
				Msg: fmt.Sprintf("bundle entry %q rejected", entries[i].Name)}
		}
		stats[i] = UploadStats{
			DedupHit:     r.DedupHit,
			PayloadBytes: len(entries[i].Payload),
			Version:      r.Version,
			Attempts:     attempt,
		}
		c.ids[entries[i].Name] = r.FileID
		c.known[entries[i].Name] = true
	}
	return nil
}
