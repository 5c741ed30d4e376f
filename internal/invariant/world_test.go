package invariant_test

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand/v2"
	"net"
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"cloudsync/internal/content"
	"cloudsync/internal/invariant"
	"cloudsync/internal/obs/ledger"
	"cloudsync/internal/planner"
	"cloudsync/internal/protocol"
	"cloudsync/internal/syncnet"
	"cloudsync/internal/watchsync"
)

// user is the one account every device of a world syncs.
const user = "alice"

// coverage counts, by path, what a band of worlds reached.
type coverage map[string]int64

func (c coverage) add(o coverage) {
	for path, n := range o {
		c[path] += n
	}
}

// paths are the ones a band must reach: every path a check is about.
var paths = []string{"inline uploads", "bundles", "deltas on a remembered signature", "signatures served",
	"deltas refused", "uploads retried", "incremental listings", "full listings", "polls cut inside the request",
	"polls cut inside the listing", "reopens", "crashes recovered", "crashes beside a second device and a link cut",
	"deferrals under fixed", "deferrals under asd", "deferrals under uds"}

type report struct {
	vs      []invariant.Violation
	cov     coverage
	wal     int64 // state-log bytes at the end (durable worlds)
	crashOp int   // the op during which the crash tripped (-1: none; len(ops): quiescence)
}

// cutConn is the outermost layer of every world connection: a cut the
// script places exactly — inside a poll's request or its listing — and
// a tap of the bytes the client read. The device's FaultPlan cuts below.
type cutConn struct {
	net.Conn
	budget int64 // bytes, both directions, before the placed cut (-1: none)
	cut    bool  // the placed cut tripped
	read   bytes.Buffer
}

func (c *cutConn) Write(p []byte) (int, error) {
	if c.budget < 0 || int64(len(p)) < c.budget {
		if c.budget > 0 {
			c.budget -= int64(len(p))
		}
		return c.Conn.Write(p)
	}
	n := 0
	if c.budget > 0 {
		n, _ = c.Conn.Write(p[:c.budget])
	}
	c.trip()
	return n, net.ErrClosed
}

func (c *cutConn) Read(p []byte) (int, error) {
	if c.budget == 0 {
		c.trip()
		return 0, net.ErrClosed
	}
	if c.budget > 0 && int64(len(p)) > c.budget {
		p = p[:c.budget]
	}
	n, err := c.Conn.Read(p)
	if c.budget > 0 {
		c.budget -= int64(n)
	}
	c.read.Write(p[:n])
	return n, err
}

func (c *cutConn) trip() {
	c.budget, c.cut = -1, true
	c.Conn.Close()
}

// endpoint is one client of a world: a raw device's, or one worker of
// a watch device's pool.
type endpoint struct {
	c        *syncnet.Client
	led      *ledger.Ledger
	sched    *syncnet.FaultScheduler
	live     *cutConn
	prevDone chan struct{}
}

type device struct {
	spec   devSpec
	pool   string // watch: the prefix of the device's own names
	eps    []*endpoint
	copies map[string][]byte // raw: each name as the device last wrote or read it
	known  map[string]bool   // raw: each name the device has written, read or listed, so its client holds the identity
	src    *watchsync.MemSource
	pipe   *watchsync.Pipeline
	seen   map[string]uint64 // raw: each name's version in the last listing applied
	life   int               // raw: the server lifetime of that listing (0: none)
}

type runner struct {
	w       world
	cfg     syncnet.ServerConfig
	srv     *syncnet.Server
	addr    string // tcp: the current incarnation's listener
	life    int    // server incarnations opened
	armed   bool   // the crash is still to come
	srvIn   int64  // wire bytes of the closed incarnations
	srvOut  int64
	tr      *invariant.Tracker
	acked   map[string]invariant.ServerFile // durable: the state as of the last acknowledgement
	devs    []*device
	now     time.Duration
	opIndex int
	rep     report
}

// runWorld replays w afresh and returns every violation: failed
// ops, the Tracker's (wire balance exact on a pipe, sign-only on TCP),
// CheckStored after each acknowledged upload, list's, CheckRecovery
// after every reopen and the crash, each watch device's tree against
// the server at quiescence, and CheckLedger on every client and on the
// server, summed across incarnations.
func runWorld(w world) report {
	r := &runner{w: w, tr: invariant.NewTracker(), armed: w.crashAt > 0,
		cfg: syncnet.ServerConfig{Ledger: &ledger.Ledger{}}}
	r.rep.crashOp, r.rep.cov = -1, coverage{}
	if w.durable {
		dir, err := os.MkdirTemp("", "world-")
		if err != nil {
			r.violate("failed-op", "%v", err)
			return r.rep
		}
		defer os.RemoveAll(dir)
		r.cfg.StateDir = dir
	}
	if err := r.open(); err != nil {
		r.violate("failed-op", "open: %v", err)
		return r.rep
	}
	r.ack()
	for i, spec := range w.devs {
		if err := r.addDevice(i, spec); err != nil {
			r.violate("failed-op", "device %d: %v", i, err)
		}
	}
	for i, o := range w.ops {
		if len(r.rep.vs) > 0 {
			break
		}
		r.opIndex, r.now = i, r.now+400*time.Millisecond
		d := r.devs[o.dev]
		switch {
		case o.kind == opReopen:
			if r.reopen() {
				r.rep.cov["reopens"]++
				r.recovered(r.acked)
			}
		case d.pipe != nil:
			for _, p := range o.batch {
				if p.kind == opDelete {
					d.src.RemoveFile(p.name)
				} else {
					d.src.WriteFile(p.name, p.content(nil), r.now)
				}
			}
			r.attempt(d, o, func() error { return r.tick(d) })
		default:
			r.attempt(d, o, func() error { return r.raw(d, o) })
		}
	}
	r.opIndex = len(w.ops)
	r.quiesce()
	r.finish()
	return r.rep
}

func (r *runner) violate(inv, format string, args ...any) {
	r.rep.vs = append(r.rep.vs, invariant.Violation{Invariant: inv,
		Detail: fmt.Sprintf("op %d: ", r.opIndex) + fmt.Sprintf(format, args...)})
}

func (r *runner) check(label string, vs []invariant.Violation) {
	for _, v := range vs {
		r.violate(v.Invariant, "%s%s", label, v.Detail)
	}
}

// open starts a server incarnation on the world's state, arming the
// crash while it is still to come.
func (r *runner) open() error {
	srv, err := syncnet.OpenServer(r.cfg)
	if err != nil {
		return err
	}
	if r.armed {
		srv.FailStateAt(r.w.crashAt)
	}
	r.srv, r.life = srv, r.life+1
	if !r.w.tcp {
		return nil
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err == nil {
		r.addr = l.Addr().String()
		go srv.Serve(l)
	}
	return err
}

// closeServer ends the current incarnation, folding its counters into
// the world's.
func (r *runner) closeServer() {
	r.srv.Close()
	st := r.srv.Stats()
	r.srvIn += st.BytesReceived
	r.srvOut += st.BytesSent
	r.rep.cov["inline uploads"] += st.InlineUploads
	r.rep.cov["deltas on a remembered signature"] += st.DeltaSyncs - st.SignaturesServed
	r.rep.cov["signatures served"] += st.SignaturesServed
	r.rep.cov["deltas refused"] += st.CondDeltaConflicts
}

func (r *runner) reopen() bool {
	r.closeServer()
	if err := r.open(); err != nil {
		r.violate("failed-op", "reopen: %v", err)
		return false
	}
	return true
}

func (r *runner) snapshot() map[string]invariant.ServerFile {
	out := map[string]invariant.ServerFile{}
	for name, f := range r.srv.Snapshot(user) {
		out[name] = invariant.ServerFile{ID: f.ID, Data: f.Data, Version: f.Version, Deleted: f.Deleted, History: f.History}
	}
	return out
}

// ack notes the state as of an acknowledgement, which every later
// reopen must reproduce exactly.
func (r *runner) ack() {
	if r.w.durable {
		r.acked = r.snapshot()
	}
}

// recovered checks a reopened server against acked.
func (r *runner) recovered(acked map[string]invariant.ServerFile) {
	r.ack()
	r.check("", invariant.CheckRecovery(acked, r.acked))
}

// addDevice builds device i: every client, watch workers included,
// dials the current incarnation through the device's own cut links.
func (r *runner) addDevice(i int, spec devSpec) error {
	d := &device{spec: spec, copies: map[string][]byte{}, known: map[string]bool{}}
	r.devs = append(r.devs, d)
	var clients []*syncnet.Client
	for k := 0; k < max(spec.workers, 1); k++ {
		plan := spec.plan
		plan.Seed += uint64(k) << 32 // each worker its own cut sequence
		e := &endpoint{led: &ledger.Ledger{}, sched: syncnet.NewFaultScheduler(plan)}
		conn, _ := r.dial(e)()
		c, err := syncnet.NewClient(conn, user, fmt.Sprintf("dev%d.%d", i, k),
			syncnet.WithDialer(r.dial(e)), syncnet.WithLedger(e.led), syncnet.WithBlockSize(block),
			syncnet.WithRetry(syncnet.RetryPolicy{MaxAttempts: 8, Sleep: func(time.Duration) {}}))
		if err != nil {
			return err
		}
		e.c = c
		d.eps, clients = append(d.eps, e), append(clients, c)
	}
	if !spec.watch {
		return nil
	}
	d.pool, d.src = fmt.Sprintf("w%d-", i), watchsync.NewMemSource()
	d.pipe = watchsync.NewPipeline(d.src, watchsync.NewExecutor(clients...), spec.cfg)
	return d.pipe.Bootstrap()
}

// dial is e's dialer. On a pipe it waits for e's previous session to
// unwind first, so whatever that session committed or stashed is
// settled before a retry asks.
func (r *runner) dial(e *endpoint) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		var conn, sp net.Conn
		if r.w.tcp {
			var err error
			if conn, err = net.Dial("tcp", r.addr); err != nil {
				return nil, err
			}
		} else {
			if e.prevDone != nil {
				<-e.prevDone
			}
			conn, sp = net.Pipe()
			done, srv := make(chan struct{}), r.srv
			e.prevDone = done
			go func() {
				defer close(done)
				srv.HandleConn(sp)
			}()
		}
		e.live = &cutConn{Conn: e.sched.Wrap(conn), budget: -1}
		return e.live, nil
	}
}

// attempt runs one step of device d — a raw op or a watch tick. When it
// fails because the armed crash tripped, the dead incarnation is
// reaped, its state directory reopened and checked against the state as
// of the last acknowledgement, and the step retried on the recovered
// server. Any other failure is a violation.
func (r *runner) attempt(d *device, o op, step func() error) {
	for {
		var base map[string]planner.FileMeta
		if d.pipe != nil {
			base = maps.Clone(d.pipe.Baseline())
		}
		err := step()
		if err == nil {
			r.ack()
			return
		}
		if !r.armed || !r.srv.Crashed() {
			r.violate("failed-op", "%v: %v", o, err)
			return
		}
		mem := r.snapshot()
		acked := maps.Clone(r.acked)
		for name, f := range mem {
			// A tick's transfers run in parallel: the ones it folded into
			// its baseline were acknowledged before the crash.
			if d.pipe != nil && d.pipe.Baseline()[name] != base[name] {
				acked[name] = f
			}
		}
		r.armed, r.rep.crashOp = false, r.opIndex
		if !r.reopen() {
			return
		}
		r.rep.cov["crashes recovered"]++
		// A file in flight is entirely absent or entirely present: a torn
		// group commit may carry some of its files whole, never
		// acknowledged (a bundle's prefix; a commit whose Ack a cut lost).
		for name, f := range r.snapshot() {
			a, m := acked[name], mem[name]
			if o.touches(d, name) && f.ID == m.ID && f.Deleted == m.Deleted && bytes.Equal(f.Data, m.Data) &&
				a.Version < f.Version && f.Version <= m.Version {
				acked[name] = f
			}
		}
		if r.recovered(acked); len(r.rep.vs) > 0 {
			return
		}
	}
}

// touches reports whether a step of o on device d may have committed
// name: one of o's names, or any of a watch device's own.
func (o op) touches(d *device, name string) bool {
	return d.pipe != nil && strings.HasPrefix(name, d.pool) || o.name == name ||
		slices.ContainsFunc(o.batch, func(p op) bool { return p.name == name })
}

func (r *runner) tick(d *device) error {
	if err := d.pipe.Poll(r.now); err != nil {
		return err
	}
	st, _, _, err := d.pipe.Tick(r.now)
	if err != nil {
		return err
	}
	r.rep.cov["deferrals under "+d.spec.cfg.Defer.Kind.String()] += int64(st.Deferred)
	if st.Errors > 0 {
		return fmt.Errorf("%d transfer errors", st.Errors)
	}
	return nil
}

// content is the bytes o writes, given the device's copy of its name.
func (o op) content(prev []byte) []byte {
	switch o.kind {
	case opEdit:
		out := bytes.Clone(prev)
		for s, n := uint64(o.seed), 1+o.seed%3; n > 0; n-- {
			s = s*6364136223846793005 + 1442695040888963407
			out[(s>>33)%uint64(len(out))] ^= 0x5A
		}
		return out
	case opShrink:
		return bytes.Clone(prev[:1+uint64(o.seed)%uint64(min(len(prev), block))])
	}
	return content.Random(o.size, o.seed).Bytes()
}

func (r *runner) raw(d *device, o op) error {
	c := d.eps[0].c
	switch o.kind {
	case opPut, opEdit, opShrink:
		data := o.content(d.copies[o.name])
		st, err := c.Upload(o.name, data)
		if err != nil {
			return err
		}
		r.uploaded(d, o.name, data, st, o.kind != opPut)
	case opBundle:
		files := make([]syncnet.FileUpload, len(o.batch))
		for i, p := range o.batch {
			files[i] = syncnet.FileUpload{Name: p.name, Data: p.content(nil)}
		}
		sts, err := c.UploadBundle(files)
		if err != nil {
			return err
		}
		for i, f := range files {
			r.uploaded(d, f.Name, f.Data, sts[i], false)
		}
		r.rep.cov["bundles"]++
	case opGet:
		data, err := c.Download(o.name)
		if err != nil {
			return err
		}
		r.tr.RecordDownload(o.name, data)
		d.copies[o.name], d.known[o.name] = data, true
	case opDelete:
		if !d.known[o.name] {
			// A client deletes by identity: learn it first.
			if _, err := c.Download(o.name); err != nil {
				return err
			}
			d.known[o.name] = true
		}
		if err := c.Delete(o.name); err != nil {
			return err
		}
		r.tr.RecordDelete(o.name)
		delete(d.copies, o.name)
	case opList:
		return r.list(d, o)
	}
	return nil
}

// uploaded records an acknowledged upload and checks the server stores
// exactly its bytes.
func (r *runner) uploaded(d *device, name string, data []byte, st syncnet.UploadStats, edit bool) {
	record := r.tr.RecordUpload
	if edit {
		record = r.tr.RecordEdit
	}
	record(name, data, st.Version)
	d.copies[name], d.known[name] = data, true
	if st.Attempts > 1 {
		r.rep.cov["uploads retried"]++
	}
	stored, ok := r.srv.FileContent(user, name)
	r.check("", invariant.CheckStored(name, data, invariant.ServerFile{Data: stored, Deleted: !ok}))
}

// list polls the listing on raw device d, cutting the live link as o
// says, and checks the result: the listing is the server's state, and
// the one Listing frame the client applied is a full listing on the
// device's first poll of a server lifetime, else incremental and no
// larger than the overhead plus the entries changed since its last poll.
func (r *runner) list(d *device, o op) error {
	e, cur := d.eps[0], d.eps[0].live
	cur.read.Reset()
	if o.cut > 0 {
		cur.budget = o.cut
	}
	got, err := e.c.List()
	cur.budget = -1
	if cur.cut && o.cut > 21 {
		r.rep.cov["polls cut inside the listing"]++
	} else if cur.cut {
		r.rep.cov["polls cut inside the request"]++
	}
	if err != nil {
		return err
	}
	snap := r.snapshot()
	listed := map[string]invariant.Listed{}
	for _, en := range got {
		d.known[en.Name] = true
		listed[en.Name] = invariant.Listed{ID: en.FileID, Size: en.Size, Hash: en.FileHash, Version: en.Version, Deleted: en.Deleted}
	}
	r.check("", invariant.CheckListing(listed, snap))

	// The live connection read this poll's frames only: a reconnect
	// dialed it during the poll, or it was reset above.
	var frames []int // sizes of the complete Listing frames read, the last applied
	var applied *protocol.Listing
	for rd := bytes.NewReader(e.live.read.Bytes()); ; {
		n := rd.Len()
		m, err := protocol.ReadMessage(rd)
		if err != nil {
			break
		}
		if l, ok := m.(*protocol.Listing); ok {
			frames, applied = append(frames, n-rd.Len()), l
		}
	}
	if len(frames) != 1 {
		r.violate("feed", "%v: the live connection read %d complete Listing frames, want 1", o, len(frames))
		return nil
	}
	overhead := protocol.EncodedSize(&protocol.Listing{})
	bound := overhead
	for name, f := range snap {
		if v, ok := d.seen[name]; !ok || v != f.Version {
			bound += protocol.EncodedSize(&protocol.Listing{Entries: []protocol.ListEntry{{Name: name}}}) - overhead
		}
	}
	switch again := d.life == r.life; {
	case applied.Incremental != again:
		r.violate("feed", "%v: incremental %v, but the cursor is from this server lifetime: %v", o, applied.Incremental, again)
	case again && frames[0] > bound:
		r.violate("feed", "%v: Listing of %d bytes exceeds %d, the overhead plus the entries changed since the last poll", o, frames[0], bound)
	case again:
		r.rep.cov["incremental listings"]++
	default:
		r.rep.cov["full listings"]++
	}
	d.seen, d.life = map[string]uint64{}, r.life
	for name, f := range snap {
		d.seen[name] = f.Version
	}
	return nil
}

// quiesce ticks each watch device until nothing is pending, then checks
// its tree against the server.
func (r *runner) quiesce() {
	for i, d := range r.devs {
		for n := 0; d.pipe != nil && d.pipe.PendingPaths() > 0 && len(r.rep.vs) == 0; n++ {
			if n == 1000 {
				r.violate("watch-convergence", "%d paths still pending", d.pipe.PendingPaths())
			}
			r.now += 400 * time.Millisecond
			r.attempt(d, op{kind: opChanges, dev: i}, func() error { return r.tick(d) })
		}
		if d.pipe == nil || len(r.rep.vs) > 0 {
			continue
		}
		snap, local := r.srv.Snapshot(user), d.src.Files()
		names := slices.Collect(maps.Keys(local))
		for name := range snap {
			if strings.HasPrefix(name, d.pool) {
				names = append(names, name)
			}
		}
		for _, name := range names {
			var remote []byte
			if f := snap[name]; !f.Deleted {
				remote = f.Data
			}
			if !bytes.Equal(local[name], remote) {
				r.violate("watch-convergence", "%s: %d B local, %d B remote", name, len(local[name]), len(remote))
			}
		}
	}
}

// finish closes every client and the server, then checks the Tracker,
// every ledger and, on a pipe, that the server carried exactly the
// clients' bytes both ways.
func (r *runner) finish() {
	var sent, total, drops int64
	for i, d := range r.devs {
		for k, e := range d.eps {
			e.c.Close()
			if e.prevDone != nil {
				<-e.prevDone
			}
			in, out := e.c.WireTotals()
			r.check(fmt.Sprintf("device %d.%d: ", i, k), invariant.CheckLedger(in+out, e.led.Snapshot()))
			st := e.sched.Stats()
			sent, total, drops = sent+st.BytesWritten, total+in+out, drops+int64(st.Drops)
		}
	}
	r.rep.wal = r.srv.StateLogBytes()
	final := r.snapshot()
	r.closeServer()
	wire := invariant.Wire{ClientSent: sent, ServerReceived: r.srvIn}
	if r.w.tcp {
		wire.MaxLost = -1
	}
	r.check("", r.tr.Check(final, wire))
	r.check("server: ", invariant.CheckLedger(r.srvIn+r.srvOut, r.cfg.Ledger.Snapshot()))
	if !r.w.tcp && total != r.srvIn+r.srvOut {
		r.violate("wire-balance", "the servers carried %d bytes, the clients %d", r.srvIn+r.srvOut, total)
	}
	if len(r.devs) > 1 && drops > 0 && r.rep.cov["crashes recovered"] > 0 {
		r.rep.cov["crashes beside a second device and a link cut"]++
	}
}

// crashOffset draws the world's crash offset inside [W/16, 3W/4) of the
// W state-log bytes its full script's clean run wrote, so the kill
// always lands inside real traffic.
func crashOffset(seed uint64, wal int64) int64 {
	return 1 + wal/16 + rand.New(rand.NewPCG(seed, 0xc4a54)).Int64N(wal*11/16+1)
}

// runBand runs every world of seeds [from, to) that keep admits. Every
// durable one runs twice: clean, then killed at a seeded offset of the
// state log its clean run wrote and recovered mid-run. A failing world
// fails t, shrunk to its shortest failing prefix under the same faults.
// It returns the paths the band reached.
func runBand(t *testing.T, from, to uint64, keep func(world) bool) coverage {
	t.Helper()
	cov := coverage{}
	for seed := from; seed < to; seed++ {
		w := genWorld(seed)
		if !keep(w) {
			continue
		}
		rep := runWorld(w)
		if w.durable && len(rep.vs) == 0 {
			cov.add(rep.cov)
			w.crashAt = crashOffset(seed, rep.wal)
			rep = runWorld(w)
		}
		if len(rep.vs) > 0 {
			k := shrinkPrefix(len(w.ops), func(k int) bool { return len(runWorld(w.prefix(k)).vs) > 0 })
			t.Fatalf("seed %d (tcp %v, durable %v, crash at %d, devices %+v): %d violation(s):\n%v\nminimal failing prefix (%d of %d ops):\n%v",
				seed, w.tcp, w.durable, w.crashAt, w.devs, len(rep.vs), rep.vs, k, len(w.ops), w.ops[:k])
		}
		cov.add(rep.cov)
	}
	return cov
}

// gate fails t unless the band reached every one of want.
func gate(t *testing.T, cov coverage, want ...string) {
	t.Helper()
	var reached []string
	for _, p := range want {
		reached = append(reached, fmt.Sprintf("%d %s", cov[p], p))
		if cov[p] <= 0 {
			t.Errorf("the worlds reached no %s", p)
		}
	}
	t.Logf("%s", strings.Join(reached, ", "))
}

func anyWorld(world) bool { return true }

// raw reports whether every device of w is a raw client.
func (w world) raw() bool {
	return !slices.ContainsFunc(w.devs, func(d devSpec) bool { return d.watch })
}

// TestWorldInvariants is the live stack's property over a band of
// seeded worlds (genWorld), run by runBand, which must reach every
// path. The -short band keeps durable crash worlds.
func TestWorldInvariants(t *testing.T) {
	seeds := uint64(104)
	if testing.Short() {
		seeds = 40
	}
	gate(t, runBand(t, 0, seeds, anyWorld), paths...)
}

// The four bands below run worlds of one shape each, on seeds past
// TestWorldInvariants' band, so that one fault family runs and is gated
// on its own.

// TestSyncnetPipeInvariants: in-RAM worlds of raw devices on net.Pipe,
// whose server must carry exactly the clients' bytes.
func TestSyncnetPipeInvariants(t *testing.T) {
	cov := runBand(t, 1000, 1200, func(w world) bool { return !w.tcp && !w.durable && w.raw() })
	gate(t, cov, "inline uploads", "deltas on a remembered signature", "deltas refused", "uploads retried",
		"polls cut inside the request", "polls cut inside the listing")
}

// TestSyncnetTCPInvariants: worlds on loopback TCP, where the wire
// balance holds by sign only.
func TestSyncnetTCPInvariants(t *testing.T) {
	gate(t, runBand(t, 1000, 1064, func(w world) bool { return w.tcp }), "inline uploads", "uploads retried")
}

// TestSyncnetBundleInvariants: raw-device worlds whose scripts upload
// bundles over cut links.
func TestSyncnetBundleInvariants(t *testing.T) {
	cov := runBand(t, 1000, 1040, func(w world) bool {
		return w.raw() && slices.ContainsFunc(w.ops, func(o op) bool { return o.kind == opBundle })
	})
	gate(t, cov, "bundles", "uploads retried")
}

// TestCrashRecoveryInvariants: durable worlds, each reopened once and
// killed once mid-script by a torn group commit.
func TestCrashRecoveryInvariants(t *testing.T) {
	gate(t, runBand(t, 1000, 1040, func(w world) bool { return w.durable }), "reopens", "crashes recovered")
}

// TestWorldFaultsFixedForEveryPrefix: a world's faults are drawn once,
// and every prefix the shrinker tries runs under them: the crash trips
// during the same op as in the full run, and a prefix that ends before
// that op runs crash-free, which is no violation. Raw devices on pipes
// only: their state log is the same, byte for byte, on every run.
func TestWorldFaultsFixedForEveryPrefix(t *testing.T) {
	for seed, tested := uint64(1), 0; tested < 3; seed += 2 {
		w := genWorld(seed)
		if w.tcp || !w.raw() {
			continue
		}
		tested++
		w.crashAt = crashOffset(seed, runWorld(w).wal)
		full := runWorld(w)
		if len(full.vs) > 0 || full.crashOp < 0 {
			t.Fatalf("seed %d: the full script's crash did not trip cleanly: op %d, %v", seed, full.crashOp, full.vs)
		}
		for k := 0; k <= len(w.ops); k++ {
			p, want := w.prefix(k), -1
			if full.crashOp < k {
				want = full.crashOp
			}
			rep := runWorld(p)
			if !reflect.DeepEqual(p.devs, w.devs) || p.crashAt != w.crashAt || rep.crashOp != want || len(rep.vs) > 0 {
				t.Fatalf("seed %d, prefix %d of %d ops: crash at %d tripped during op %d (want %d), violations %v",
					seed, k, len(w.ops), p.crashAt, rep.crashOp, want, rep.vs)
			}
		}
	}
}
