package syncnet

import (
	"io"
	"net"
	"sync/atomic"

	"cloudsync/internal/obs"
	"cloudsync/internal/store/wal"
)

// serverObs bundles the server's live-metric instruments. When the
// server runs without a registry every field is nil, and the nil-safe
// obs instruments make every update a no-op — the live path costs
// nothing unless syncd was started with -obs-addr. The full metric
// catalogue is documented in docs/OBSERVABILITY.md.
type serverObs struct {
	bytesIn     *obs.Counter
	bytesOut    *obs.Counter
	sessions    *obs.Counter
	activeConns *obs.Gauge

	uploads     *obs.Counter
	dedupSkips  *obs.Counter
	deltaSyncs  *obs.Counter
	downloads   *obs.Counter
	deletes     *obs.Counter
	resumes     *obs.Counter
	bundles     *obs.Counter
	bundleFiles *obs.Counter

	// One-round-trip uploads: files that rode inline in a one-entry
	// bundle, and deltas that named their base version instead of
	// asking for a signature first (accepted, and refused as stale).
	inlineUploads      *obs.Counter
	condDeltas         *obs.Counter
	condDeltaConflicts *obs.Counter

	// Signature cache: a miss signs the whole file, a hit none of it,
	// and resigned blocks are what delta syncs hashed to keep it current.
	sigCacheHits      *obs.Counter
	sigCacheMisses    *obs.Counter
	sigResignedBlocks *obs.Counter

	pendingResumable *obs.Gauge
	bytesStored      *obs.Gauge

	sessionTUEMilli *obs.Histogram
	requestUS       *obs.Histogram

	// Phase decomposition: where a request's time goes before and during
	// handling (WAL fsync time is metered inside internal/store/wal).
	inboundWaitUS *obs.Histogram
	applyUS       *obs.Histogram
}

// newServerObs registers the server's metric set on reg (no-op
// instruments when reg is nil).
func newServerObs(reg *obs.Registry) serverObs {
	return serverObs{
		bytesIn:     reg.Counter("syncd_bytes_received_total", "Bytes read off client connections (server-side wire view, up direction)."),
		bytesOut:    reg.Counter("syncd_bytes_sent_total", "Bytes written to client connections (down direction)."),
		sessions:    reg.Counter("syncd_sessions_total", "Client sessions accepted."),
		activeConns: reg.Gauge("syncd_active_connections", "Client connections currently open."),

		uploads:    reg.Counter("syncd_uploads_total", "Full-file uploads committed (dedup hits included)."),
		dedupSkips: reg.Counter("syncd_dedup_skips_total", "Uploads whose content transfer was skipped by full-file dedup."),
		deltaSyncs: reg.Counter("syncd_delta_syncs_total", "Files updated incrementally via rsync delta."),
		downloads:  reg.Counter("syncd_downloads_total", "File downloads served."),
		deletes:    reg.Counter("syncd_deletes_total", "Fake deletions applied."),
		resumes:    reg.Counter("syncd_resumes_total", "Interrupted uploads adopted from the pending stash."),

		bundles:     reg.Counter("syncd_bundles_total", "Bundle messages handled (batched small-file uploads)."),
		bundleFiles: reg.Counter("syncd_bundle_files_total", "Files committed via bundle messages."),

		inlineUploads:      reg.Counter("syncd_inline_uploads_total", "Files committed from one-entry bundles: lockstep uploads of files no larger than one delta block, payload inline, one round trip."),
		condDeltas:         reg.Counter("syncd_cond_deltas_total", "Delta syncs applied on the sender's own base version (no signature round trip)."),
		condDeltaConflicts: reg.Counter("syncd_cond_delta_conflicts_total", "Version-conditional deltas refused with ErrConflict because the file had moved past the named base version."),

		sigCacheHits:      reg.Counter("syncd_sig_cache_hits_total", "Signature requests answered from a file's cached signature (no hashing)."),
		sigCacheMisses:    reg.Counter("syncd_sig_cache_misses_total", "Signature requests that had to sign the whole file (first request, full re-upload since, or another block size)."),
		sigResignedBlocks: reg.Counter("syncd_sig_resigned_blocks_total", "Blocks hashed by delta syncs to carry a cached signature to the new version (the edit's share of the file, not the file)."),

		pendingResumable: reg.Gauge("syncd_pending_resumable", "Stashed partial uploads currently held for resumption."),
		bytesStored:      reg.Gauge("syncd_bytes_stored", "Unique raw content bytes in the dedup content store."),

		sessionTUEMilli: reg.Histogram("syncd_session_tue_milli", "Per-session TUE x1000: wire bytes received / content bytes committed, for sessions that committed content."),
		requestUS:       reg.Histogram("syncd_request_duration_us", "Per-request handling time in microseconds."),

		inboundWaitUS: reg.Histogram("syncd_inbound_queue_wait_us", "Microseconds a fully read request waited in the connection's inbound queue before dispatch (read-ahead backpressure)."),
		applyUS:       reg.Histogram("syncd_apply_us", "Microseconds spent applying a mutation to in-memory state (decode, verify, store), excluding the WAL group commit."),
	}
}

// walMetrics registers the durable-store instrument set. It is called
// only when both a registry and a state dir are configured, so an
// in-RAM server's /metrics never carries WAL series.
func walMetrics(reg *obs.Registry) *wal.Metrics {
	return &wal.Metrics{
		FsyncUS:       reg.Histogram("syncd_wal_fsync_duration_us", "Microseconds per WAL group commit (buffered write + fsync)."),
		Fsyncs:        reg.Counter("syncd_wal_fsyncs_total", "WAL group commits (fsyncs) performed."),
		BytesAppended: reg.Counter("syncd_wal_bytes_appended_total", "Framed record bytes made durable in the WAL."),
		Compactions:   reg.Counter("syncd_wal_compactions_total", "Log-into-snapshot compactions completed."),
		SnapshotBytes: reg.Gauge("syncd_wal_snapshot_bytes", "Size of the current generation's snapshot in bytes."),
	}
}

// countingWriter mirrors countingReader for the send direction: it
// tallies bytes into the per-session counter, the server-wide atomic,
// and the live metric.
type countingWriter struct {
	w     io.Writer
	n     *int64
	total *atomic.Int64
	obsC  *obs.Counter
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	*cw.n += int64(n)
	cw.total.Add(int64(n))
	cw.obsC.Add(int64(n))
	return n, err
}

// writeVectored writes hdr then payload in one net.Buffers send — a
// single writev when the underlying connection supports it — counting
// the bytes exactly once.
func (cw *countingWriter) writeVectored(hdr, payload []byte) (int64, error) {
	bufs := net.Buffers{hdr, payload}
	n, err := bufs.WriteTo(cw.w)
	*cw.n += n
	cw.total.Add(n)
	cw.obsC.Add(n)
	return n, err
}
