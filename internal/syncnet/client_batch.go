package syncnet

import (
	"crypto/md5"
	"fmt"

	"cloudsync/internal/comp"
	"cloudsync/internal/obs"
	"cloudsync/internal/protocol"
)

// Batched upload paths: the paper's batching remedy applied to the live
// protocol. A lockstep client pays one request/response round trip per
// file; for workloads dominated by tiny files that round trip — not
// bandwidth — is the bottleneck. UploadBundle coalesces a batch into a
// single framed exchange, UploadPipelined keeps a window of ordinary
// exchanges in flight on one connection. Both operate under the
// client's retry policy as one operation: a connection cut mid-batch
// reconnects and replays the batch, with the ledger retagging re-sent
// bytes as retransmit (and files committed by the broken attempt
// collapsing into dedup hits).
//
// Names within one batch must be distinct: both paths key in-flight
// state by the server-assigned fileID, which is per name.

// FileUpload is one file of a batched upload.
type FileUpload struct {
	Name string
	Data []byte
}

// hashAndCompress fingerprints and compresses the batch once, outside
// the retry loop, reusing one MD5 state across files — retries must
// not recompute digests, and per-file md5.New allocations would
// dominate tiny-file batches.
func (c *Client) hashAndCompress(files []FileUpload, hashes []protocol.Fingerprint, payloads [][]byte) {
	if c.digest == nil {
		c.digest = md5.New()
	}
	for i, f := range files {
		c.digest.Reset()
		c.digest.Write(f.Data)
		c.digest.Sum(hashes[i][:0])
		payloads[i] = comp.Compress(f.Data, c.compression)
	}
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
	in0, out0 := c.wireIn, c.wireOut
	hashes := make([]protocol.Fingerprint, len(files))
	payloads := make([][]byte, len(files))
	c.hashAndCompress(files, hashes, payloads)
	entries := make([]protocol.BundleEntry, len(files))
	for i, f := range files {
		entries[i] = protocol.BundleEntry{
			Name: f.Name, Size: int64(len(f.Data)), FileHash: hashes[i], Payload: payloads[i],
		}
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
	if err := c.send(&protocol.Bundle{Entries: entries}); err != nil {
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

// UploadPipelined uploads a batch of files over the ordinary
// index/data/commit exchanges with up to window requests in flight,
// instead of stalling a round trip on every reply. Replies arrive in
// request order (the server dispatches in arrival order), so no
// request IDs are needed. The window must not exceed the server's
// MaxInflight; over an unbuffered transport (net.Pipe) windows above 1
// additionally rely on the transport absorbing the outstanding
// replies, so tests there use window 1.
//
// Unlike Upload, the pipelined path always speaks the full-upload
// protocol — dedup still elides content for files the server already
// holds, but no rsync delta is attempted.
func (c *Client) UploadPipelined(files []FileUpload, window int) ([]UploadStats, error) {
	if len(files) == 0 {
		return nil, nil
	}
	if window < 1 {
		window = 1
	}
	c.op = c.tracer.Start("client.upload_pipelined",
		obs.Int("files", int64(len(files))), obs.Int("window", int64(window)))
	in0, out0 := c.wireIn, c.wireOut
	hashes := make([]protocol.Fingerprint, len(files))
	payloads := make([][]byte, len(files))
	c.hashAndCompress(files, hashes, payloads)
	stats := make([]UploadStats, len(files))
	fileIDs := make([]uint64, len(files))
	ackQueue := make([]int, 0, window)
	err := c.withRetry(func(attempt int) error {
		// Phase 1: windowed index exchange. Announce up to `window`
		// files ahead of the oldest unanswered IndexUpdate.
		sent, replied := 0, 0
		for replied < len(files) {
			for sent < len(files) && sent-replied < window {
				f := files[sent]
				if err := c.send(&protocol.IndexUpdate{
					FileID: c.ids[f.Name], Name: f.Name, Size: int64(len(f.Data)), FileHash: hashes[sent],
				}); err != nil {
					return err
				}
				sent++
			}
			m, err := c.read()
			if err != nil {
				return err
			}
			reply, ok := m.(*protocol.IndexReply)
			if !ok {
				return fmt.Errorf("syncnet: expected index reply, got %v", m.Type())
			}
			fileIDs[replied] = reply.FileID
			c.ids[files[replied].Name] = reply.FileID
			stats[replied] = UploadStats{DedupHit: reply.DedupHit, Attempts: attempt}
			replied++
		}

		// Phase 2: data + commit per file, windowed on outstanding acks.
		// Ack order equals commit order, so a simple index queue pairs
		// them back up.
		ackQueue = ackQueue[:0]
		flushAck := func() error {
			ack, err := c.readAck()
			if err != nil {
				return err
			}
			i := ackQueue[0]
			ackQueue = ackQueue[1:]
			stats[i].Version = ack.Version
			c.ids[files[i].Name] = ack.FileID
			c.known[files[i].Name] = true
			return nil
		}
		for i := range files {
			for len(ackQueue) >= window {
				if err := flushAck(); err != nil {
					return err
				}
			}
			if stats[i].DedupHit {
				stats[i].PayloadBytes = 0
			} else {
				pl := payloads[i]
				stats[i].PayloadBytes = len(pl)
				for off := 0; off < len(pl); off += DataPieceSize {
					end := off + DataPieceSize
					if end > len(pl) {
						end = len(pl)
					}
					if err := c.sendData(uint64(i), fileIDs[i], int64(off), pl[off:end]); err != nil {
						return err
					}
				}
			}
			if err := c.send(&protocol.Commit{FileID: fileIDs[i]}); err != nil {
				return err
			}
			ackQueue = append(ackQueue, i)
		}
		for len(ackQueue) > 0 {
			if err := flushAck(); err != nil {
				return err
			}
		}
		return nil
	})
	c.op.Set("attempts", stats[0].Attempts)
	c.endOp(in0, out0, err)
	if err != nil {
		return nil, err
	}
	return stats, nil
}
