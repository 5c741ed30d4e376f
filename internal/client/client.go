// Package client implements the sync client engine: the state machine
// that watches the sync folder, defers and batches updates, composes
// sync sessions, and puts bytes on the network path.
//
// Every design choice the paper measures is a Config field: sync
// granularity (full-file vs chunked IDS), upload compression level,
// deduplication participation, batched data sync (BDS) of small-file
// creations, and the sync-deferment policy. The engine also reproduces
// the two natural-batching conditions of § 6.2: a new modification is
// synchronized only when the previous session has completed
// (Condition 1 — enforced by serializing sessions on the path and by
// the in-flight check) and when the client has finished computing the
// modified files' metadata (Condition 2 — the hardware profile's
// metadata time elapses between the sync trigger and the dispatch, and
// updates landing in that window join the batch).
package client

import (
	"fmt"
	"sort"
	"time"

	"cloudsync/internal/chunker"
	"cloudsync/internal/cloud"
	"cloudsync/internal/comp"
	"cloudsync/internal/content"
	"cloudsync/internal/deferpolicy"
	"cloudsync/internal/hardware"
	"cloudsync/internal/netem"
	"cloudsync/internal/obs"
	"cloudsync/internal/obs/ledger"
	"cloudsync/internal/protocol"
	"cloudsync/internal/simclock"
	"cloudsync/internal/vfs"
)

// AccessMethod is how the user reaches the service (§ 3.2): native PC
// client, web browser, or mobile app.
type AccessMethod uint8

const (
	// PC is the native desktop client.
	PC AccessMethod = iota
	// Web is browser-based access.
	Web
	// Mobile is the smartphone app.
	Mobile
)

// String names the access method.
func (a AccessMethod) String() string {
	switch a {
	case PC:
		return "PC client"
	case Web:
		return "Web-based"
	case Mobile:
		return "Mobile app"
	default:
		return fmt.Sprintf("access(%d)", uint8(a))
	}
}

// Config selects the client-side design choices.
type Config struct {
	User   string
	Device string
	Access AccessMethod

	// FullFileSync uploads the whole file on any modification; when
	// false the client performs incremental data sync at ChunkSize
	// granularity.
	FullFileSync bool
	ChunkSize    int

	// UploadCompression is applied to outgoing content;
	// DownloadCompression is the strongest level the client can accept
	// on downloads.
	UploadCompression   comp.Level
	DownloadCompression comp.Level

	// UseDedup lets the client compute and send content fingerprints so
	// the cloud can deduplicate (web access never does).
	UseDedup bool

	// BDS enables batched data sync of file creations; BundleSize caps
	// how many creations share one bundle (0 = unlimited). Partial BDS
	// implementations (Dropbox web/mobile) use small bundles.
	BDS        bool
	BundleSize int

	// Defer is the sync-deferment policy; it must be valid.
	Defer deferpolicy.Policy

	// Hardware drives Condition 2's metadata-computation time.
	Hardware hardware.Profile

	// MetaPerSyncUp/Down model the service-specific control chatter
	// paid once per sync session (login, listing, status), and
	// MetaPerFileUp/Down the chatter paid per file within a session.
	// The split is what makes some services amortize batches (Box,
	// OneDrive) while others pay full price per file (Google Drive,
	// SugarSync); both are calibrated from Tables 6 and 7.
	MetaPerSyncUp   int
	MetaPerSyncDown int
	MetaPerFileUp   int
	MetaPerFileDown int
	// SharedSession merges all concurrently-pending work into one
	// session (sharing connection setup and session chatter); without
	// it every file (or BDS bundle) runs as its own session.
	SharedSession bool
	// ExtraRTTs adds protocol round trips to each session's commit.
	ExtraRTTs int
	// AutoSyncRemote subscribes the client to the cloud's change
	// notifications and mirrors other devices' changes into the local
	// folder (the Fig. 1 fan-out). PC clients of the same account run
	// with this on; access methods with no local replica leave it off.
	AutoSyncRemote bool
	// PayloadExpansion multiplies data payloads for service framing
	// (multipart encoding, per-block headers). ≥ 1.
	PayloadExpansion float64

	// Tracer, when set, records one span per sync round with children
	// for the metadata-computation window and each dispatched session.
	// Build it with obs.NewSimTracer(clock.Now) so timestamps are
	// virtual-clock readings; recording never alters the simulation.
	Tracer *obs.Tracer
}

func (c Config) validate() {
	if c.User == "" {
		panic("client: Config.User must be set")
	}
	if !c.FullFileSync && c.ChunkSize <= 0 {
		panic("client: chunked sync requires ChunkSize")
	}
	if err := c.Defer.Validate(); err != nil {
		panic("client: " + err.Error())
	}
	if c.PayloadExpansion < 1 {
		panic(fmt.Sprintf("client: PayloadExpansion %v < 1", c.PayloadExpansion))
	}
	if c.Hardware.HashMBps <= 0 {
		panic("client: Config.Hardware must be a valid profile")
	}
}

// Stats counts client activity.
type Stats struct {
	// Sessions is the number of sync sessions dispatched.
	Sessions int
	// FileSyncs is the number of file versions synchronized (bundled
	// creations count individually).
	FileSyncs int
	// Bundles is the number of BDS bundles sent.
	Bundles int
	// DedupSkips counts uploads fully avoided by deduplication.
	DedupSkips int
	// Deletes counts deletion notifications.
	Deletes int
	// Downloads counts completed downloads.
	Downloads int
}

type syncedInfo struct {
	gen  uint64
	size int64
}

// Client is a sync client bound to one folder, one cloud, and one path.
type Client struct {
	cfg   Config
	clock *simclock.Clock
	fs    *vfs.FS
	cloud *cloud.Cloud
	path  *netem.Path

	synced         map[string]syncedInfo
	pending        map[string]bool // name → deleted
	inSession      map[string]bool
	deferState     deferpolicy.ASDState
	deferTimer     simclock.Timer
	inFlight       bool
	wantSync       bool
	applyingRemote bool

	// The clock callbacks, bound once rather than at every scheduling.
	dispatchFn, timerFn, sessionDoneFn func()

	round round
	stats Stats
}

// round is the sync round in flight and its scratch. Condition 1
// keeps at most one round in flight per client, and the path reads a
// session's exchanges before Do returns, so one round's scratch is
// free once its last session completes: the next round truncates and
// refills it rather than allocating its own.
type round struct {
	span     *obs.Span // the round (nil when idle or untraced)
	metaSpan *obs.Span // metadata-computation window within the round

	names []string
	batch []workItem // pending files in name order
	// items is batch in session order: with BDS the creations first,
	// then the rest; each unit commits a run of it.
	items []workItem
	units []sessionUnit
	// exchanges is the arena every unit's exchanges are a run of, the
	// session tail included.
	exchanges []netem.Exchange
	done      int // units whose session has completed
}

// sessionUnit is an independently dispatchable piece of work: one file
// operation, one BDS bundle of creations, or — with SharedSession —
// the whole round. It commits items[itemLo:itemHi] over
// exchanges[exLo:exHi] of its round.
type sessionUnit struct {
	itemLo, itemHi int
	exLo, exHi     int
	span           *obs.Span
}

// New wires a client to its folder, cloud, and path, and starts
// watching the folder.
func New(cfg Config, clock *simclock.Clock, fs *vfs.FS, cl *cloud.Cloud, path *netem.Path) *Client {
	cfg.validate()
	if clock == nil || fs == nil || cl == nil || path == nil {
		panic("client: New with nil dependency")
	}
	c := &Client{
		cfg:       cfg,
		clock:     clock,
		fs:        fs,
		cloud:     cl,
		path:      path,
		synced:    make(map[string]syncedInfo),
		pending:   make(map[string]bool),
		inSession: make(map[string]bool),
	}
	c.dispatchFn, c.timerFn, c.sessionDoneFn = c.dispatch, c.trySync, c.sessionDone
	fs.Watch(c.onEvent)
	if cfg.AutoSyncRemote {
		cl.Subscribe(cfg.User, cfg.Device, c.onRemoteChange)
	}
	return c
}

// Config returns the client configuration.
func (c *Client) Config() Config { return c.cfg }

// Stats returns a copy of the activity counters.
func (c *Client) Stats() Stats { return c.stats }

func (c *Client) onEvent(ev vfs.Event) {
	if c.applyingRemote {
		// The change is a mirror of a remote commit, not local user
		// activity; uploading it back would loop.
		return
	}
	switch ev.Op {
	case vfs.OpCreate, vfs.OpModify:
		c.pending[ev.Name] = false
	case vfs.OpDelete:
		_, everSynced := c.synced[ev.Name]
		if !everSynced && !c.inSession[ev.Name] {
			// Created and deleted before any sync touched it: nothing to
			// tell the cloud. (A file inside an in-flight session is
			// about to exist in the cloud, so its deletion must still be
			// queued — the race this guards was found by the model-based
			// convergence test.)
			delete(c.pending, ev.Name)
			return
		}
		c.pending[ev.Name] = true
	}
	var delay time.Duration
	delay, c.deferState = c.cfg.Defer.Step(c.deferState, c.clock.Now(), c.pendingBytes())
	c.clock.Reset(&c.deferTimer, delay, c.timerFn)
}

// pendingBytes estimates the unsynchronized volume, the input to
// byte-counter deferment policies.
func (c *Client) pendingBytes() int64 {
	var total int64
	for name, deleted := range c.pending {
		if deleted {
			continue
		}
		f, ok := c.fs.File(name)
		if !ok {
			continue
		}
		if s, everSynced := c.synced[name]; everSynced {
			for _, r := range f.EditsSince(s.gen) {
				total += r.Len
			}
		} else {
			total += f.Size()
		}
	}
	return total
}

// trySync begins a sync cycle if one is not already in flight
// (Condition 1) and there is work to do.
func (c *Client) trySync() {
	if c.inFlight {
		c.wantSync = true
		return
	}
	if len(c.pending) == 0 {
		return
	}
	c.inFlight = true
	c.round.span = c.cfg.Tracer.Start("client.sync_round",
		obs.String("user", c.cfg.User), obs.String("device", c.cfg.Device),
		obs.Int("pending", int64(len(c.pending))))
	// Condition 2: compute metadata for every pending file before
	// dispatching. Updates arriving during this window join the batch,
	// because the snapshot happens at dispatch time.
	var metaBytes int64
	for name, deleted := range c.pending {
		if deleted {
			continue
		}
		if f, ok := c.fs.File(name); ok {
			metaBytes += f.Size()
		}
	}
	c.round.metaSpan = c.round.span.Child("client.metadata", obs.Int("bytes", metaBytes))
	c.clock.PostDelay(c.cfg.Hardware.MetadataTime(metaBytes), c.dispatchFn)
}

// workItem is one file operation snapshotted into a session.
type workItem struct {
	name     string
	deleted  bool
	isCreate bool
	blob     *content.Blob
	gen      uint64
	dirty    []chunker.Range
	decision cloud.UploadDecision
}

func (c *Client) dispatch() {
	r := &c.round
	r.metaSpan.End()
	r.metaSpan = nil
	c.snapshot()
	if len(r.batch) == 0 {
		c.endRound()
		return
	}
	c.composeUnits()
	r.span.Set(obs.Int("files", int64(len(r.batch))), obs.Int("sessions", int64(len(r.units))))
	for i := range r.units {
		u := &r.units[i]
		exchanges := r.exchanges[u.exLo:u.exHi]
		c.stats.Sessions++
		var up, down int64
		for _, ex := range exchanges {
			up += int64(ex.UpApp)
			down += int64(ex.DownApp)
		}
		u.span = r.span.Child("client.session",
			obs.Int("exchanges", int64(len(exchanges))),
			obs.Int("up_app", up), obs.Int("down_app", down))
		c.path.Do(exchanges, c.cloud.Config().ProcessingTime, c.sessionDoneFn)
	}
}

// sessionDone commits the next unit of the round. The path completes
// sessions in the order Do started them, so the n-th completion is
// the round's n-th unit.
func (c *Client) sessionDone() {
	r := &c.round
	u := &r.units[r.done]
	r.done++
	for i := u.itemLo; i < u.itemHi; i++ {
		c.commit(&r.items[i])
	}
	u.span.End()
	if r.done == len(r.units) {
		c.onAllSessionsDone()
	}
}

// sessionExchange is the once-per-session control tail: commit/status
// chatter plus the service's extra round trips.
func (c *Client) sessionExchange() netem.Exchange {
	return netem.Exchange{
		UpApp:     protocol.SizeCommit() + c.cfg.MetaPerSyncUp,
		DownApp:   protocol.SizeAck() + c.cfg.MetaPerSyncDown,
		ExtraRTTs: c.cfg.ExtraRTTs,
		Cause:     ledger.Metadata,
	}
}

// snapshot fills the round's batch with the pending files, in name
// order, and moves them from pending to inSession.
func (c *Client) snapshot() {
	r := &c.round
	r.names = r.names[:0]
	for name := range c.pending {
		r.names = append(r.names, name)
	}
	sort.Strings(r.names)
	r.batch = r.batch[:0]
	for _, name := range r.names {
		if c.pending[name] {
			r.batch = append(r.batch, workItem{name: name, deleted: true})
			continue
		}
		f, ok := c.fs.File(name)
		if !ok {
			continue
		}
		s, everSynced := c.synced[name]
		item := workItem{
			name:     name,
			isCreate: !everSynced,
			blob:     f.Blob(),
			gen:      f.Gen(),
		}
		if everSynced {
			item.dirty = f.EditsSince(s.gen)
		}
		item.decision = c.cloud.ProbeUpload(c.cfg.User, item.blob, c.cfg.UseDedup)
		r.batch = append(r.batch, item)
	}
	clear(c.pending)
	for _, item := range r.batch {
		c.inSession[item.name] = true
	}
}

// expand applies the service's payload framing expansion.
func (c *Client) expand(n int64) int {
	return int(float64(n) * c.cfg.PayloadExpansion)
}

// uploadPayload computes the content bytes a work item must transfer.
func (c *Client) uploadPayload(item *workItem) int64 {
	if item.decision.SkipAll {
		return 0
	}
	blob := item.blob
	full := comp.Size(blob, c.cfg.UploadCompression)
	if item.decision.TotalBlocks > 0 {
		// Block-level dedup: only the missing fraction moves.
		full = full * int64(item.decision.MissingBlocks) / int64(item.decision.TotalBlocks)
	}
	if item.isCreate || c.cfg.FullFileSync {
		return full
	}
	// Incremental sync: only chunks overlapping the dirty ranges move,
	// compressed at the blob's overall ratio.
	dirtyBytes := chunker.DirtyBytes(blob.Size(), c.cfg.ChunkSize, item.dirty)
	if blob.Size() == 0 {
		return 0
	}
	ratio := float64(comp.Size(blob, c.cfg.UploadCompression)) / float64(blob.Size())
	payload := int64(float64(dirtyBytes) * ratio)
	if payload > full {
		payload = full
	}
	return payload
}

// composeUnits orders the round's batch into its items and cuts them
// into units: BDS bundles creations, everything else goes per file,
// and SharedSession merges every unit into one session. Each session
// ends with the once-per-session tail.
func (c *Client) composeUnits() {
	r := &c.round
	r.items, r.units, r.exchanges, r.done = r.items[:0], r.units[:0], r.exchanges[:0], 0
	creations := 0
	if c.cfg.BDS {
		for _, item := range r.batch {
			if !item.deleted && item.isCreate {
				r.items = append(r.items, item)
			}
		}
		creations = len(r.items)
		for _, item := range r.batch {
			if item.deleted || !item.isCreate {
				r.items = append(r.items, item)
			}
		}
	} else {
		r.items = append(r.items, r.batch...)
	}

	bundleSize := c.cfg.BundleSize
	if bundleSize <= 0 {
		bundleSize = creations
	}
	for lo := 0; lo < len(r.items); {
		hi := lo + 1
		exLo := len(r.exchanges)
		if lo < creations {
			hi = min(lo+bundleSize, creations)
			c.appendBundleExchanges(r.items[lo:hi])
			c.stats.Bundles++
		} else {
			c.appendFileExchanges(&r.items[lo])
		}
		if !c.cfg.SharedSession {
			r.exchanges = append(r.exchanges, c.sessionExchange())
		}
		r.units = append(r.units, sessionUnit{itemLo: lo, itemHi: hi, exLo: exLo, exHi: len(r.exchanges)})
		lo = hi
	}
	if c.cfg.SharedSession {
		r.exchanges = append(r.exchanges, c.sessionExchange())
		r.units = append(r.units[:0], sessionUnit{itemHi: len(r.items), exHi: len(r.exchanges)})
	}
}

// appendBundleExchanges composes one BDS bundle onto the round's
// exchanges: a single index/commit exchange pair covering every file,
// with the payloads concatenated.
func (c *Client) appendBundleExchanges(bundle []workItem) {
	indexUp := 0
	var payload int64
	for i := range bundle {
		item := &bundle[i]
		indexUp += protocol.SizeIndexUpdate(item.name, item.decision.IndexFingerprints)
		payload += c.uploadPayload(item)
		if item.decision.SkipAll {
			c.stats.DedupSkips++
		}
		c.stats.FileSyncs++
	}
	r := &c.round
	r.exchanges = append(r.exchanges, netem.Exchange{
		UpApp:   indexUp,
		DownApp: protocol.SizeIndexReply(0),
		Cause:   indexCause(bundle),
	})
	if payload > 0 {
		r.exchanges = append(r.exchanges, netem.Exchange{
			UpApp:   c.expand(payload),
			DownApp: protocol.SizeAck(),
			Cause:   ledger.Payload,
		})
	}
}

// indexCause attributes an index exchange: when it carries content
// fingerprints it is a dedup probe ("do you already have these
// blocks?"), otherwise plain metadata.
func indexCause(items []workItem) ledger.Cause {
	for _, item := range items {
		if item.decision.IndexFingerprints > 0 {
			return ledger.DedupProbe
		}
	}
	return ledger.Metadata
}

// appendFileExchanges composes the per-file exchange sequence onto the
// round's exchanges: index update, data (if any), commit with the
// per-file control chatter.
func (c *Client) appendFileExchanges(item *workItem) {
	r := &c.round
	if item.deleted {
		c.stats.Deletes++
		r.exchanges = append(r.exchanges, netem.Exchange{
			UpApp:   protocol.SizeDelete() + c.cfg.MetaPerFileUp/2,
			DownApp: protocol.SizeAck() + c.cfg.MetaPerFileDown/2,
			Cause:   ledger.Metadata,
		})
		return
	}
	c.stats.FileSyncs++
	if item.decision.SkipAll {
		c.stats.DedupSkips++
	}
	indexUp := protocol.SizeIndexUpdate(item.name, item.decision.IndexFingerprints)
	replyDown := protocol.SizeIndexReply(item.decision.MissingBlocks)
	cause := ledger.Metadata
	if item.decision.IndexFingerprints > 0 {
		cause = ledger.DedupProbe
	}
	r.exchanges = append(r.exchanges, netem.Exchange{
		UpApp:   indexUp,
		DownApp: replyDown,
		Cause:   cause,
	})
	if payload := c.uploadPayload(item); payload > 0 {
		dataCause := ledger.Payload
		if !item.isCreate && !c.cfg.FullFileSync {
			// Incremental data sync ships only the changed byte ranges —
			// the sim-path equivalent of a delta's literal bytes.
			dataCause = ledger.DeltaLiteral
		}
		r.exchanges = append(r.exchanges, netem.Exchange{
			UpApp:   c.expand(payload),
			DownApp: protocol.SizeAck(),
			Cause:   dataCause,
		})
	}
	r.exchanges = append(r.exchanges, netem.Exchange{
		UpApp:   protocol.SizeCommit() + c.cfg.MetaPerFileUp,
		DownApp: protocol.SizeAck() + c.cfg.MetaPerFileDown,
		Cause:   ledger.Metadata,
	})
}

// commit applies one work item of a completed session to the cloud.
func (c *Client) commit(item *workItem) {
	user := c.cfg.User
	if item.deleted {
		// The file may have been recreated meanwhile; a failed delete
		// of an already-gone entry is harmless.
		if e, ok := c.cloud.File(user, item.name); ok {
			_ = c.cloud.Delete(user, item.name)
			c.cloud.NotifyPeers(user, c.cfg.Device, e, true)
		}
		delete(c.synced, item.name)
		return
	}
	var e *cloud.Entry
	if item.decision.SkipAll {
		e = c.cloud.RecordSkippedUpload(user, item.name, item.blob)
	} else {
		e = c.cloud.Commit(user, item.name, item.blob, item.dirty)
	}
	c.synced[item.name] = syncedInfo{gen: item.gen, size: item.blob.Size()}
	c.cloud.NotifyPeers(user, c.cfg.Device, e, false)
}

// onRemoteChange mirrors another device's committed change into the
// local folder: the notification arrives as a server push, the content
// (for upserts) is downloaded, and the result is applied with the
// watcher suppressed. Conflicts resolve remote-wins: any queued local
// state for the same name is superseded.
func (c *Client) onRemoteChange(e *cloud.Entry, deleted bool) {
	notify := protocol.SizeNotify(e.Name)
	name := e.Name
	blob := e.Blob
	sp := c.cfg.Tracer.Start("client.remote_change",
		obs.String("name", name), obs.Bool("deleted", deleted))
	c.path.Push(notify, func() {
		if deleted {
			c.applyRemoteDelete(name)
			sp.End()
			return
		}
		payload := c.cloud.ServeSize(e, c.cfg.DownloadCompression)
		sp.Set(obs.Int("payload", payload))
		exchanges := []netem.Exchange{
			{
				UpApp:   protocol.SizeGet(name),
				DownApp: protocol.SizeIndexReply(0),
				Cause:   ledger.Metadata,
			},
			{
				UpApp:   protocol.SizeCommit(),
				DownApp: c.expand(payload),
				Cause:   ledger.Payload,
			},
		}
		c.path.Do(exchanges, 0, func() {
			c.stats.Downloads++
			c.applyRemoteUpsert(name, blob)
			sp.End()
		})
	})
}

func (c *Client) applyRemoteUpsert(name string, blob *content.Blob) {
	c.applyingRemote = true
	defer func() { c.applyingRemote = false }()
	var err error
	if _, ok := c.fs.File(name); ok {
		err = c.fs.Write(name, blob, []chunker.Range{{Off: 0, Len: blob.Size()}})
	} else {
		err = c.fs.Create(name, blob)
	}
	if err != nil {
		panic(fmt.Sprintf("client: applying remote change to %q: %v", name, err))
	}
	f, _ := c.fs.File(name)
	c.synced[name] = syncedInfo{gen: f.Gen(), size: blob.Size()}
	delete(c.pending, name)
}

func (c *Client) applyRemoteDelete(name string) {
	c.applyingRemote = true
	defer func() { c.applyingRemote = false }()
	if _, ok := c.fs.File(name); ok {
		if err := c.fs.Delete(name); err != nil {
			panic(fmt.Sprintf("client: applying remote delete of %q: %v", name, err))
		}
	}
	delete(c.synced, name)
	delete(c.pending, name)
}

func (c *Client) onAllSessionsDone() {
	c.endRound()
	clear(c.inSession)
	if c.wantSync {
		c.wantSync = false
		c.trySync()
	}
}

// endRound closes the round. Its scratch stays for the next round, with
// the work items cleared so it holds no blob past the round.
func (c *Client) endRound() {
	r := &c.round
	r.span.End()
	r.span = nil
	clear(r.batch)
	clear(r.items)
	c.inFlight = false
}

// Download fetches a file's content from the cloud — the DN phase of
// Experiment 4. done (which may be nil) runs at completion.
func (c *Client) Download(name string, done func()) error {
	entry, ok := c.cloud.File(c.cfg.User, name)
	if !ok {
		return fmt.Errorf("client: download: %s/%s not in cloud", c.cfg.User, name)
	}
	payload := c.cloud.ServeSize(entry, c.cfg.DownloadCompression)
	sp := c.cfg.Tracer.Start("client.download",
		obs.String("name", name), obs.Int("payload", payload))
	exchanges := []netem.Exchange{
		{
			UpApp:   protocol.SizeIndexUpdate(name, 0) + c.cfg.MetaPerSyncUp/2,
			DownApp: protocol.SizeIndexReply(0) + c.cfg.MetaPerSyncDown/2,
			Cause:   ledger.Metadata,
		},
		{
			UpApp:   protocol.SizeCommit(),
			DownApp: c.expand(payload),
			Cause:   ledger.Payload,
		},
	}
	c.path.Do(exchanges, 0, func() {
		c.stats.Downloads++
		sp.End()
		if done != nil {
			done()
		}
	})
	return nil
}
