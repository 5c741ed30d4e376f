package syncnet

import (
	"bytes"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"cloudsync/internal/invariant"
	"cloudsync/internal/obs"
)

// obsRig is a fully instrumented client/server pair over net.Pipe:
// separate tracers for each side plus a live metric registry on the
// server.
type obsRig struct {
	srv       *Server
	client    *Client
	reg       *obs.Registry
	serverTr  *obs.Tracer
	clientTr  *obs.Tracer
	handlerCh chan error
}

func newObsRig(t *testing.T, cfg ServerConfig) *obsRig {
	t.Helper()
	leakCheck(t)
	rig := &obsRig{
		reg:       obs.NewRegistry(),
		serverTr:  obs.NewTracer(),
		clientTr:  obs.NewTracer(),
		handlerCh: make(chan error, 1),
	}
	cfg.Metrics = rig.reg
	cfg.Tracer = rig.serverTr
	rig.srv = NewServer(cfg)
	cp, sp := net.Pipe()
	go func() { rig.handlerCh <- rig.srv.HandleConn(sp) }()
	c, err := NewClient(cp, "alice", "obs-test", WithTracer(rig.clientTr))
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	rig.client = c
	t.Cleanup(func() { rig.srv.Close() })
	return rig
}

// finish closes the client side and waits for the server handler, so
// the server session span is ended and all counters are final.
func (r *obsRig) finish(t *testing.T) {
	t.Helper()
	r.client.Close()
	if err := <-r.handlerCh; err != nil {
		t.Fatalf("HandleConn: %v", err)
	}
}

// spanNames returns the recorded span names in recording order.
func spanNames(spans []obs.SpanData) []string {
	names := make([]string, len(spans))
	for i, s := range spans {
		names[i] = s.Name
	}
	return names
}

// TestObsRoundTrip drives upload → delta re-upload → download → delete
// through a fully traced pair and asserts (a) the span trees on both
// sides have the expected shape, and (b) the live byte counters agree
// exactly with the wire truth, via the invariant harness's
// wire-balance check (net.Pipe is synchronous, so MaxLost is 0).
func TestObsRoundTrip(t *testing.T) {
	rig := newObsRig(t, ServerConfig{})
	tracker := invariant.NewTracker()
	// The tracker's TUE floor counts whole files as fresh content, but
	// the re-upload below is a delta sync that legitimately ships far
	// fewer bytes than the new version's size — same exemption as
	// compression.
	tracker.Compressed = true

	v1 := bytes.Repeat([]byte("observability "), 4<<10)
	stats, err := rig.client.Upload("report.txt", v1)
	if err != nil {
		t.Fatalf("upload: %v", err)
	}
	tracker.RecordUpload("report.txt", v1, stats.Version)

	v2 := append(append([]byte{}, v1...), []byte("appended tail")...)
	stats, err = rig.client.Upload("report.txt", v2)
	if err != nil {
		t.Fatalf("re-upload: %v", err)
	}
	if !stats.DeltaSync {
		t.Fatalf("re-upload was not a delta sync: %+v", stats)
	}
	tracker.RecordUpload("report.txt", v2, stats.Version)

	got, err := rig.client.Download("report.txt")
	if err != nil {
		t.Fatalf("download: %v", err)
	}
	tracker.RecordDownload("report.txt", got)

	if err := rig.client.Delete("report.txt"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	tracker.RecordDelete("report.txt")
	rig.finish(t)

	// Client span tree: four roots, one per operation, each with the
	// protocol-stage children hanging off them.
	cs := rig.clientTr.Spans()
	var roots []string
	for _, s := range cs {
		if s.Parent == 0 {
			roots = append(roots, s.Name)
		}
		if s.Parent == 0 && s.Root != s.ID {
			t.Errorf("root span %s has Root=%d, want its own ID %d", s.Name, s.Root, s.ID)
		}
		if !s.Ended {
			t.Errorf("client span %s never ended", s.Name)
		}
	}
	wantRoots := []string{"client.upload", "client.upload", "client.download", "client.delete"}
	if strings.Join(roots, ",") != strings.Join(wantRoots, ",") {
		t.Fatalf("client root spans = %v, want %v\nall: %v", roots, wantRoots, spanNames(cs))
	}
	// The first upload must contain the full-upload stage, the second
	// the delta stage, each nested under its operation's root.
	assertStage := func(stage string, rootIdx int) {
		t.Helper()
		var root uint64
		n := -1
		for _, s := range cs {
			if s.Parent == 0 {
				n++
				if n == rootIdx {
					root = s.ID
				}
			}
		}
		for _, s := range cs {
			if s.Name == stage && s.Root == root {
				return
			}
		}
		t.Errorf("no %s span under root #%d\nall: %v", stage, rootIdx, spanNames(cs))
	}
	assertStage("client.full_upload", 0)
	assertStage("client.delta_sync", 1)

	// Server span tree: one session root, and one span per request. The
	// traced client sends its trace context, so each request span is a
	// remote child of the client attempt that caused it.
	attempts := map[uint64]bool{}
	for _, s := range cs {
		if s.Name == "client.attempt" {
			attempts[s.ID] = true
		}
	}
	ss := rig.serverTr.Spans()
	var sessions, requests int
	for _, s := range ss {
		switch {
		case s.Name == "server.session":
			sessions++
			if !s.Ended {
				t.Error("server session span never ended")
			}
		case strings.HasPrefix(s.Name, "server."):
			requests++
			if s.RemoteTrace != rig.clientTr.TraceID() || !attempts[s.RemoteParent] {
				t.Errorf("request span %s: remote parent %d in trace %v, want a client.attempt of trace %v",
					s.Name, s.RemoteParent, s.RemoteTrace, rig.clientTr.TraceID())
			}
		default:
			t.Errorf("unexpected server span %s", s.Name)
		}
	}
	if sessions != 1 || requests == 0 {
		t.Fatalf("server spans: %d sessions, %d requests; want 1 session with requests\nall: %v",
			sessions, requests, spanNames(ss))
	}

	// Byte counters vs wire truth. net.Pipe delivers synchronously, so
	// every byte the client wrote was read by the server and vice versa.
	clientIn, clientOut := rig.client.WireTotals()
	srvStats := rig.srv.Stats()
	recvMetric := rig.reg.Counter("syncd_bytes_received_total", "").Value()
	sentMetric := rig.reg.Counter("syncd_bytes_sent_total", "").Value()
	if recvMetric != srvStats.BytesReceived {
		t.Errorf("syncd_bytes_received_total = %d, server stats = %d", recvMetric, srvStats.BytesReceived)
	}
	if sentMetric != clientIn {
		t.Errorf("syncd_bytes_sent_total = %d, client read %d", sentMetric, clientIn)
	}
	if vs := tracker.Check(adaptSnapshot(rig.srv.Snapshot("alice")), invariant.Wire{
		ClientSent:     clientOut,
		ServerReceived: srvStats.BytesReceived,
		MaxLost:        0,
	}); len(vs) != 0 {
		t.Fatalf("invariant violations: %v", vs)
	}

	// The session span's byte attributes must equal the same wire truth.
	for _, s := range ss {
		if s.Name != "server.session" {
			continue
		}
		if got := s.Attr("bytes_in"); got != itoa(srvStats.BytesReceived) {
			t.Errorf("session span bytes_in = %s, want %d", got, srvStats.BytesReceived)
		}
		if got := s.Attr("bytes_out"); got != itoa(clientIn) {
			t.Errorf("session span bytes_out = %s, want %d", got, clientIn)
		}
	}

	// Operation counters.
	for name, want := range map[string]int64{
		"syncd_uploads_total":     1,
		"syncd_delta_syncs_total": 1,
		"syncd_downloads_total":   1,
		"syncd_deletes_total":     1,
		"syncd_sessions_total":    1,
	} {
		if got := rig.reg.Counter(name, "").Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := rig.reg.Histogram("syncd_session_tue_milli", "").Count(); got != 1 {
		t.Errorf("syncd_session_tue_milli count = %d, want 1", got)
	}
}

func adaptSnapshot(snap map[string]FileState) map[string]invariant.ServerFile {
	out := make(map[string]invariant.ServerFile, len(snap))
	for name, f := range snap {
		out[name] = invariant.ServerFile{
			Data: f.Data, Version: f.Version, Deleted: f.Deleted, History: f.History,
		}
	}
	return out
}

func itoa(v int64) string { return strconv.FormatInt(v, 10) }

// TestObsUntracedClientCountsNothing pins what an uninstrumented client
// costs: it charges no ledger and puts no trace context on the wire
// (the server's spans all stay local), while its wire meter — every client has one —
// agrees byte for byte with the server's on a net.Pipe session.
func TestObsUntracedClientCountsNothing(t *testing.T) {
	leakCheck(t)
	srvTr := obs.NewTracer()
	srv := NewServer(ServerConfig{Tracer: srvTr})
	defer srv.Close()
	cp, sp := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- srv.HandleConn(sp) }()
	c, err := NewClient(cp, "alice", "plain")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Upload("f", []byte("content")); err != nil {
		t.Fatalf("upload: %v", err)
	}
	if _, err := c.Download("f"); err != nil {
		t.Fatalf("download: %v", err)
	}
	c.Close()
	if err := <-done; err != nil {
		t.Fatalf("HandleConn: %v", err)
	}
	if c.wc.charged != 0 {
		t.Fatalf("untraced client charged %d bytes to a ledger", c.wc.charged)
	}
	for _, sd := range srvTr.Spans() {
		if sd.RemoteParent != 0 {
			t.Fatalf("server span %s has a remote parent: the untraced client sent a trace context", sd.Name)
		}
	}
	in, out := c.WireTotals()
	st := srv.Stats()
	if in == 0 || in != st.BytesSent || out != st.BytesReceived {
		t.Fatalf("client wire in=%d out=%d, server sent=%d received=%d", in, out, st.BytesSent, st.BytesReceived)
	}
}

// TestCloseTearsDownAttachedObsEndpoint covers syncd's shutdown path:
// an obs HTTP endpoint adopted via AttachCloser must stop answering —
// and its serve goroutine must exit — once the sync server closes.
func TestCloseTearsDownAttachedObsEndpoint(t *testing.T) {
	leakCheck(t)
	reg := obs.NewRegistry()
	hs, err := obs.ListenAndServe("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(ServerConfig{Metrics: reg})
	srv.AttachCloser(hs)

	resp, err := http.Get("http://" + hs.Addr().String() + "/healthz")
	if err != nil {
		t.Fatalf("obs endpoint not serving: %v", err)
	}
	resp.Body.Close()

	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := http.Get("http://" + hs.Addr().String() + "/healthz"); err == nil {
		t.Fatal("obs endpoint still answering after the sync server closed")
	}
	// A second server close must not re-close the endpoint (closers are
	// drained on first Close; obs Close is idempotent anyway).
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// leakCheck only watches syncnet frames; the obs serve goroutine
	// needs its own check (Close waits for it, so no retry loop needed).
	buf := make([]byte, 1<<20)
	if stacks := string(buf[:runtime.Stack(buf, true)]); strings.Contains(stacks, "obs.ListenAndServe.func") {
		t.Fatalf("obs serve goroutine outlived the sync server:\n%s", stacks)
	}
}
