package main

import (
	"bytes"
	"crypto/md5"
	"errors"
	"os"
	"time"

	"cloudsync/internal/chunker"
	"cloudsync/internal/comp"
	"cloudsync/internal/content"
	"cloudsync/internal/dedup"
	"cloudsync/internal/delta"
	"cloudsync/internal/protocol"
	"cloudsync/internal/store/wal"
	"cloudsync/internal/syncnet"
	"cloudsync/internal/trace"
)

// The layer replay. The program carries no spans of its own on the
// end-to-end path, and this change may not add any, so the traced pass
// decomposes an operation from outside: after the real client call
// returns, the same inputs are pushed through every layer's public
// functions — the calls the client and server made on the operation's
// behalf — each under its own layer.<module>.<fn> span. What the call
// took beyond the sum of those spans is sockets, scheduling and
// dispatch: syncnet.transport_us_per_op.

// replayer is one client goroutine's recorder plus the private state
// the replayed layers need: a dedup index, codec scratch buffers and,
// for the durable workload, a write-ahead log of its own.
type replayer struct {
	*recorder
	idx     *dedup.Index
	enc     []byte
	readBuf []byte
	rd      bytes.Reader
	walDir  string
	wal     *wal.Store
	walRec  []byte
	walLive [][]byte // every record the private log has taken: the state a compaction rewrites
	cutBuf  []byte

	msgs         int64 // protocol messages replayed
	literalBytes int64 // delta literal bytes / target bytes: delta.literal_share
	targetBytes  int64
	compIn       int64 // comp.ratio
	compOut      int64
}

func newReplayer(epoch time.Time, client int, walDir string) *replayer {
	return &replayer{recorder: newRecorder(epoch, client), idx: dedup.NewIndex(false), walDir: walDir}
}

// close releases and removes the private log, if one was opened.
func (r *replayer) close() error {
	if r.wal == nil {
		return nil
	}
	err := r.wal.Close()
	return errors.Join(err, os.RemoveAll(r.walDir))
}

// callSpan records the real client call as a child of the current op.
func (r *replayer) callSpan(name string, t0, t1 time.Time, bytes int64) {
	r.child(name, int64(t0.Sub(r.epoch)), int64(t1.Sub(r.epoch)), bytes)
}

// codec replays one operation's message sequence: every message is
// encoded once and decoded once, as on the wire.
func (r *replayer) codec(msgs ...protocol.Message) {
	var n int64
	r.layer("layer.protocol.codec", 0, func() {
		for _, m := range msgs {
			r.enc = protocol.AppendEncode(r.enc[:0], m)
			n += int64(len(r.enc))
			r.rd.Reset(r.enc)
			_, r.readBuf, _ = protocol.ReadMessageBuf(&r.rd, r.readBuf) // decoding what was just encoded cannot fail
		}
	})
	r.msgs += int64(len(msgs))
	r.agg["layer.protocol.codec"].Bytes += n
}

func (r *replayer) md5sum(data []byte) (sum [md5.Size]byte) {
	r.layer("layer.md5.Sum", int64(len(data)), func() { sum = md5.Sum(data) })
	return sum
}

// compress and decompress replay the codec unless the session runs
// uncompressed, where the program's calls return at once.
func (r *replayer) compress(data []byte, level comp.Level) []byte {
	if level == comp.None {
		return data
	}
	var out []byte
	r.layer("layer.comp.Compress", int64(len(data)), func() { out = comp.Compress(data, level) })
	r.compIn += int64(len(data))
	r.compOut += int64(len(out))
	return out
}

func (r *replayer) decompress(payload []byte, level comp.Level) {
	if level == comp.None {
		return
	}
	r.layer("layer.comp.Decompress", int64(len(payload)), func() { comp.Decompress(payload, level) })
}

// dataPieces appends the Data messages that carry payload.
func dataPieces(msgs []protocol.Message, payload []byte) []protocol.Message {
	for off := 0; off < len(payload); off += syncnet.DataPieceSize {
		end := min(off+syncnet.DataPieceSize, len(payload))
		msgs = append(msgs, &protocol.Data{FileID: 1, Offset: int64(off), Payload: payload[off:end]})
	}
	return msgs
}

const replayUser = "replay"

// full replays one full upload: client hash and compress, the
// index/data/commit exchange, server dedup probe, decompress, verify
// hash and index insert.
func (r *replayer) full(name string, data []byte, level comp.Level, dedupHit bool) {
	sum := r.md5sum(data)
	payload := r.compress(data, level)
	msgs := []protocol.Message{
		&protocol.IndexUpdate{Name: name, Size: int64(len(data)), FileHash: sum},
		&protocol.IndexReply{FileID: 1, DedupHit: dedupHit},
	}
	if !dedupHit {
		msgs = dataPieces(msgs, payload)
	}
	msgs = append(msgs, &protocol.Commit{FileID: 1}, &protocol.Ack{FileID: 1, Version: 1, OK: true})
	r.codec(msgs...)
	r.layer("layer.dedup.Index.Lookup", 0, func() { r.idx.Lookup(replayUser, sum, int64(len(data))) })
	if !dedupHit {
		r.decompress(payload, level)
	}
	r.md5sum(data)
	r.layer("layer.dedup.Index.Add", 0, func() { r.idx.Add(replayUser, sum, int64(len(data))) })
}

// bundle replays one UploadBundle into a durable server: per-entry
// hashing on both sides, one Bundle/BundleReply exchange, dedup probes,
// the log appends plus the single group-commit fsync, and — once the
// private log passes compactAt, this client's share of the server's
// threshold — the compaction that rewrites everything logged so far as
// a snapshot.
func (r *replayer) bundle(files []syncnet.FileUpload, level comp.Level, compactAt int64) error {
	if r.wal == nil {
		st, err := wal.Open(r.walDir, func([]byte) error { return nil })
		if err != nil {
			return err
		}
		r.wal = st
	}
	entries := make([]protocol.BundleEntry, len(files))
	results := make([]protocol.BundleResult, len(files))
	for i, f := range files {
		sum := r.md5sum(f.Data)
		entries[i] = protocol.BundleEntry{Name: f.Name, Size: int64(len(f.Data)), FileHash: sum, Payload: r.compress(f.Data, level)}
		results[i] = protocol.BundleResult{FileID: uint64(i + 1), Version: 1, OK: true}
	}
	r.codec(&protocol.Bundle{Entries: entries}, &protocol.BundleReply{Results: results})
	for i, f := range files {
		en := &entries[i]
		r.layer("layer.dedup.Index.Lookup", 0, func() { r.idx.Lookup(replayUser, en.FileHash, en.Size) })
		r.decompress(en.Payload, level)
		r.md5sum(f.Data)
		r.layer("layer.dedup.Index.Add", 0, func() { r.idx.Add(replayUser, en.FileHash, en.Size) })
		// One record the size of what the server logs for the entry —
		// the content plus its name, hash and version fields; the log
		// does not care what the bytes are.
		n := len(f.Data) + len(f.Name) + 64
		if cap(r.walRec) < n {
			r.walRec = make([]byte, n)
		}
		rec := r.walRec[:n]
		r.layer("layer.wal.Store.Append", int64(n), func() { r.wal.Append(rec) })
		// Only the record's size matters to the snapshot a compaction
		// writes, so the state list aliases the input.
		r.walLive = append(r.walLive, f.Data)
	}
	var err error
	r.layer("layer.wal.Store.Sync", 0, func() { err = r.wal.Sync() })
	if err == nil && r.wal.LogBytes() > compactAt {
		r.layer("layer.wal.Store.Compact", 0, func() { err = r.wal.Compact(r.walLive) })
	}
	return err
}

// deltaSync replays one incremental upload: the server signs its
// stored version, the client computes and encodes the delta against
// the decoded signature, the server decodes and applies it and hashes
// the result.
func (r *replayer) deltaSync(name string, prev, cur []byte, blockSize int) error {
	if blockSize == 0 {
		blockSize = delta.DefaultBlockSize
	}
	var sig delta.Signature
	r.layer("layer.delta.Sign", int64(len(prev)), func() { sig = delta.Sign(prev, blockSize) })
	var sigEnc []byte
	r.layer("layer.delta.Signature.Encode", 0, func() { sigEnc = sig.Encode() })
	var err error
	r.layer("layer.delta.DecodeSignature", int64(len(sigEnc)), func() { sig, err = delta.DecodeSignature(sigEnc) })
	if err != nil {
		return err
	}
	var d delta.Delta
	r.layer("layer.delta.Compute", int64(len(cur)), func() { d = delta.Compute(sig, cur) })
	var dEnc []byte
	r.layer("layer.delta.Encode", 0, func() { dEnc = d.Encode() })
	r.layer("layer.delta.DecodeDelta", int64(len(dEnc)), func() { d, err = delta.DecodeDelta(dEnc) })
	if err != nil {
		return err
	}
	var out []byte
	r.layer("layer.delta.Apply", int64(len(cur)), func() { out, err = delta.Apply(prev, d) })
	if err != nil {
		return err
	}
	sum := r.md5sum(out)
	r.codec(
		&protocol.SigRequest{Name: name, BlockSize: uint32(blockSize)},
		&protocol.SignatureMsg{Name: name, Payload: sigEnc},
		&protocol.DeltaMsg{Name: name, Payload: dEnc},
		&protocol.Ack{FileID: 1, Version: 2, OK: true},
	)
	r.layer("layer.dedup.Index.Add", 0, func() { r.idx.Add(replayUser, sum, int64(len(out))) })
	r.literalBytes += int64(d.LiteralBytes())
	r.targetBytes += int64(len(cur))
	return nil
}

func (r *replayer) deletion() {
	r.codec(&protocol.Delete{FileID: 1}, &protocol.Ack{FileID: 1, Version: 2, OK: true})
}

func (r *replayer) list(entries []protocol.ListEntry) {
	r.codec(&protocol.ListRequest{}, &protocol.Listing{Entries: entries})
}

func (r *replayer) download(name string, data []byte, level comp.Level) {
	payload := r.compress(data, level)
	msgs := []protocol.Message{
		&protocol.Get{Name: name},
		&protocol.FileInfo{FileID: 1, Name: name, Size: int64(len(data)), Version: 1, Compression: uint8(level)},
	}
	msgs = dataPieces(msgs, payload)
	r.codec(append(msgs, &protocol.Ack{FileID: 1, Version: 1, OK: true})...)
	r.decompress(payload, level)
}

// Content-defined chunking parameters of the replayed cut scan: the
// 2/8/64 KiB geometry the chunking experiments use.
const (
	cutMin = 2 << 10
	cutAvg = 8 << 10
	cutMax = 64 << 10
)

// chunk replays the chunker's cut scan over 4 MiB of the trace's first
// content identity: the simulated services fingerprint descriptor
// blobs, so the scan never sees file bytes inside ScaleReplay itself.
func (r *replayer) chunk(recs []trace.Record) {
	if r.cutBuf == nil {
		var seed int64
		if len(recs) > 0 {
			seed = recs[0].ContentID
		}
		r.cutBuf = content.Random(4<<20, seed).Bytes()
	}
	r.layer("layer.chunker.CutPoints", int64(len(r.cutBuf)), func() { chunker.CutPoints(r.cutBuf, cutMin, cutAvg, cutMax) })
}
