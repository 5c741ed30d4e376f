package syncnet

import (
	"cloudsync/internal/obs"
	"cloudsync/internal/store/wal"
)

// serverObs bundles the server's live-metric instruments. The counters
// and gauges always exist — they are the one copy of every ServerStats
// number — while the histograms are nil without a registry, so an
// uninstrumented server makes no extra time.Now calls. The full metric
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

	// The edit's cost on the wire: literal bytes in the deltas applied,
	// at whatever block size they were cut.
	deltaLiteralBytes *obs.Counter

	// Round trips: files that rode inline in a one-entry bundle,
	// signatures served (each one a round trip ahead of a delta), and
	// deltas refused because the file was not at their base version.
	inlineUploads      *obs.Counter
	signaturesServed   *obs.Counter
	condDeltaConflicts *obs.Counter

	// Change feed: entries per Listing sent, and the full listings sent
	// to feed requests (first poll, new epoch, or an unusable cursor).
	listingEntries *obs.Histogram
	listingResyncs *obs.Counter

	pendingResumable *obs.Gauge
	bytesStored      *obs.Gauge

	sessionTUEMilli *obs.Histogram
	requestUS       *obs.Histogram

	// Phase decomposition: where a request's handling time goes (WAL
	// fsync time is metered inside internal/store/wal).
	applyUS       *obs.Histogram
	decompressUS  *obs.Histogram
	contentHashUS *obs.Histogram
	// The witness of what identity hashing costs, read without a clock:
	// the bytes of content fed to it.
	contentHashBytes *obs.Counter
}

// newServerObs registers the server's metric set on reg. With reg nil
// the counters and gauges go to a private registry and the histograms
// stay nil.
func newServerObs(reg *obs.Registry) serverObs {
	hist := reg
	if reg == nil {
		reg = obs.NewRegistry()
	}
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

		deltaLiteralBytes: reg.Counter("syncd_delta_literal_bytes_total", "Literal bytes in the deltas applied: what edits cost on the wire, about one block per dirty block."),

		inlineUploads:      reg.Counter("syncd_inline_uploads_total", "Files committed from one-entry bundles: lockstep uploads of files no larger than one delta block, payload inline, one round trip."),
		signaturesServed:   reg.Counter("syncd_signatures_served_total", "Signatures served in answer to SigRequest, each signed from the file's content at that moment: every one is a round trip some delta sync paid before its delta."),
		condDeltaConflicts: reg.Counter("syncd_cond_delta_conflicts_total", "Deltas refused with ErrConflict because the file was not at the base version they named."),

		listingEntries: hist.Histogram("syncd_listing_entries", "Entries per Listing sent: the whole namespace for a full listing, the files changed since the cursor for an incremental one."),
		listingResyncs: reg.Counter("syncd_listing_resyncs_total", "Full listings sent in answer to a change-feed request: a first poll, a cursor from before a reopen (epoch change), or a cursor the server never issued."),

		pendingResumable: reg.Gauge("syncd_pending_resumable", "Stashed partial uploads currently held for resumption."),
		bytesStored:      reg.Gauge("syncd_bytes_stored", "Unique raw content bytes in the dedup content store."),

		sessionTUEMilli: hist.Histogram("syncd_session_tue_milli", "Per-session TUE x1000: wire bytes received / content bytes committed, for sessions that committed content."),
		requestUS:       hist.Histogram("syncd_request_duration_us", "Per-request handling time in microseconds."),

		applyUS:       hist.Histogram("syncd_apply_us", "Microseconds spent applying a mutation to in-memory state (decode, verify, store), excluding the WAL group commit."),
		decompressUS:  hist.Histogram("syncd_decompress_us", "Microseconds spent inflating each compressed upload payload into its announced size (part of syncd_apply_us)."),
		contentHashUS: hist.Histogram("syncd_content_hash_us", "Microseconds spent on each identity hash: of a transferred upload, or of a delta's result, only the leaves the delta touched (part of syncd_apply_us)."),

		contentHashBytes: reg.Counter("syncd_content_hash_bytes_total", "Bytes of content the server hashed into identities: a transferred upload's whole size, only the touched leaves of a delta's result."),
	}
}

// walMetrics registers the durable-store instrument set. It is called
// only when both a registry and a state dir are configured, so an
// in-RAM server's /metrics never carries WAL series.
func walMetrics(reg *obs.Registry) *wal.Metrics {
	return &wal.Metrics{
		FsyncUS:       reg.Histogram("syncd_wal_fsync_duration_us", "Microseconds per WAL group commit (buffered write + fsync)."),
		Fsyncs:        reg.Counter("syncd_wal_fsyncs_total", "WAL group commits (fsyncs) performed."),
		CommitWaitUS:  reg.Histogram("syncd_wal_commit_wait_us", "Microseconds a session waits, outside the server lock, for the WAL flush that covers its records; its count over syncd_wal_fsyncs_total is the group-commit factor."),
		BytesAppended: reg.Counter("syncd_wal_bytes_appended_total", "Framed record bytes made durable in the WAL."),
		ZeroBytes:     reg.Counter("syncd_wal_zero_fill_bytes_total", "Zeros written ahead of the WAL's last frame, which later commits overwrite."),
		Compactions:   reg.Counter("syncd_wal_compactions_total", "Log-into-snapshot compactions completed."),
		SnapshotBytes: reg.Gauge("syncd_wal_snapshot_bytes", "Size of the current generation's snapshot in bytes."),
	}
}
