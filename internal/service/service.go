// Package service encodes the six commercial cloud storage services
// the paper studies — Google Drive, OneDrive, Dropbox, Box, Ubuntu One,
// and SugarSync — as parameterisations of the generic client/cloud
// engine, one per access method.
//
// The design-choice fields come straight from the paper's reverse
// engineering: sync granularity from § 4.3 (Fig. 4), BDS support from
// Table 7, compression behaviour from Table 8, deduplication
// granularity and scope from Table 9, and the fixed sync deferments
// from § 6.1 (Google Drive ≈ 4.2 s, SugarSync ≈ 6 s, OneDrive ≈
// 10.5 s). The per-sync metadata chatter and payload expansion factors
// are calibrated so simulated traffic for the canonical single-file
// operations lands near Table 6's measurements.
package service

import (
	"fmt"
	"time"

	"cloudsync/internal/capture"
	"cloudsync/internal/client"
	"cloudsync/internal/cloud"
	"cloudsync/internal/comp"
	"cloudsync/internal/dedup"
	"cloudsync/internal/deferpolicy"
	"cloudsync/internal/hardware"
	"cloudsync/internal/netem"
	"cloudsync/internal/obs"
	"cloudsync/internal/simclock"
	"cloudsync/internal/vfs"
	"cloudsync/internal/wire"
)

// Name identifies a service.
type Name uint8

const (
	// GoogleDrive is Google Drive.
	GoogleDrive Name = iota
	// OneDrive is Microsoft OneDrive (formerly SkyDrive).
	OneDrive
	// Dropbox is Dropbox.
	Dropbox
	// Box is Box.
	Box
	// UbuntuOne is Canonical's Ubuntu One.
	UbuntuOne
	// SugarSync is SugarSync.
	SugarSync
)

// String names the service as the paper's tables do.
func (n Name) String() string {
	switch n {
	case GoogleDrive:
		return "Google Drive"
	case OneDrive:
		return "OneDrive"
	case Dropbox:
		return "Dropbox"
	case Box:
		return "Box"
	case UbuntuOne:
		return "Ubuntu One"
	case SugarSync:
		return "SugarSync"
	case Reference:
		return "Reference"
	default:
		return fmt.Sprintf("service(%d)", uint8(n))
	}
}

// All returns the six services in the paper's table order.
func All() []Name {
	return []Name{GoogleDrive, OneDrive, Dropbox, Box, UbuntuOne, SugarSync}
}

// AccessMethods returns the three access methods in table order.
func AccessMethods() []client.AccessMethod {
	return []client.AccessMethod{client.PC, client.Web, client.Mobile}
}

// CloudConfig returns the service's cloud-side design choices.
func CloudConfig(n Name) cloud.Config {
	switch n {
	case GoogleDrive:
		return cloud.Config{ProcessingTime: 1500 * time.Millisecond}
	case OneDrive:
		return cloud.Config{ProcessingTime: 1500 * time.Millisecond}
	case Dropbox:
		// Table 9: 4 MB block dedup for the same user, none cross-user.
		// Table 8 DN: content served compressed to every access method.
		return cloud.Config{
			DedupGranularity: dedup.Block,
			DedupBlockSize:   4 << 20,
			DedupCrossUser:   false,
			StoreCompression: comp.High,
			ProcessingTime:   500 * time.Millisecond,
		}
	case Box:
		return cloud.Config{ProcessingTime: 5 * time.Second}
	case UbuntuOne:
		// Table 9: full-file dedup across users. Table 8 DN: compressed
		// downloads for PC and web.
		return cloud.Config{
			DedupGranularity: dedup.FullFile,
			DedupCrossUser:   true,
			StoreCompression: comp.High,
			ProcessingTime:   2500 * time.Millisecond,
		}
	case SugarSync:
		return cloud.Config{ProcessingTime: 1500 * time.Millisecond}
	default:
		panic(fmt.Sprintf("service: unknown service %d", n))
	}
}

// FixedDeferment returns the fixed sync deferment § 6.1 measures for
// the service's PC client, or 0 when the service syncs immediately.
func FixedDeferment(n Name) time.Duration {
	switch n {
	case GoogleDrive:
		return 4200 * time.Millisecond
	case OneDrive:
		return 10500 * time.Millisecond
	case SugarSync:
		return 6 * time.Second
	default:
		return 0
	}
}

// Persistent reports whether the access method keeps its connection to
// the cloud open between sync sessions. PC clients of services with
// lightweight custom protocols (Ubuntu One) or long-lived notification
// channels (Dropbox) reuse connections; web and mobile access
// re-establishes HTTPS per operation.
func Persistent(n Name, access client.AccessMethod) bool {
	if access != client.PC {
		return false
	}
	return n == Dropbox || n == UbuntuOne
}

// calib is the calibrated control-chatter model for one service/access
// pair: sessUp/sessDown are paid once per sync session, fileUp/fileDown
// once per file, and shared says whether concurrently pending files
// share a session (connection + session chatter). The split is derived
// jointly from Table 6 (single-file creations) and Table 7 (100-file
// batches): Box amortizes batches heavily, OneDrive moderately, while
// Google Drive and SugarSync pay nearly full price per file.
type calib struct {
	sessUp, sessDown int
	fileUp, fileDown int
	shared           bool
}

func chatter(n Name, access client.AccessMethod) calib {
	type key struct {
		n Name
		a client.AccessMethod
	}
	m := map[key]calib{
		{GoogleDrive, client.PC}:     {350, 150, 150, 50, false},
		{GoogleDrive, client.Web}:    {0, 0, 0, 0, false},
		{GoogleDrive, client.Mobile}: {15800, 6800, 0, 0, false},
		{OneDrive, client.PC}:        {0, 0, 7300, 3200, true},
		{OneDrive, client.Web}:       {0, 0, 13000, 5500, true},
		{OneDrive, client.Mobile}:    {2100, 900, 11600, 4900, true},
		{Dropbox, client.PC}:         {24500, 10500, 8400, 3600, true},
		{Dropbox, client.Web}:        {12200, 5300, 2800, 1200, false},
		{Dropbox, client.Mobile}:     {4400, 1900, 1600, 700, false},
		{Box, client.PC}:             {25000, 11000, 6600, 2900, true},
		{Box, client.Web}:            {11600, 5000, 20300, 8700, true},
		{Box, client.Mobile}:         {4600, 2000, 0, 0, false},
		{UbuntuOne, client.PC}:       {0, 0, 70, 30, true},
		{UbuntuOne, client.Web}:      {19600, 8400, 0, 0, false},
		{UbuntuOne, client.Mobile}:   {7400, 3200, 0, 0, false},
		{SugarSync, client.PC}:       {200, 100, 1500, 700, false},
		{SugarSync, client.Web}:      {15100, 6500, 700, 300, false},
		{SugarSync, client.Mobile}:   {6400, 2800, 8700, 3700, true},
	}
	v, ok := m[key{n, access}]
	if !ok {
		panic(fmt.Sprintf("service: no chatter calibration for %v/%v", n, access))
	}
	return v
}

// expansion is the service's payload framing expansion factor,
// calibrated from Table 6's large-file rows.
func expansion(n Name) float64 {
	switch n {
	case GoogleDrive:
		return 1.06
	case OneDrive:
		return 1.08
	case Dropbox:
		return 1.18
	case Box:
		return 1.01
	case UbuntuOne:
		return 1.06
	case SugarSync:
		return 1.08
	default:
		panic(fmt.Sprintf("service: unknown service %d", n))
	}
}

// ClientConfig returns the client-side design choices for a service and
// access method.
func ClientConfig(n Name, access client.AccessMethod) client.Config {
	cal := chatter(n, access)
	cfg := client.Config{
		User:                "alice",
		Device:              "M1",
		Access:              access,
		FullFileSync:        true,
		UploadCompression:   comp.None,
		DownloadCompression: comp.None,
		Hardware:            hardware.M1(),
		MetaPerSyncUp:       cal.sessUp,
		MetaPerSyncDown:     cal.sessDown,
		MetaPerFileUp:       cal.fileUp,
		MetaPerFileDown:     cal.fileDown,
		SharedSession:       cal.shared,
		ExtraRTTs:           1,
		PayloadExpansion:    expansion(n),
	}
	if access == client.PC {
		if t := FixedDeferment(n); t > 0 {
			cfg.Defer = deferpolicy.Policy{Kind: deferpolicy.Fixed, T: t}
		}
	}
	switch n {
	case Dropbox:
		cfg.ExtraRTTs = 3
		// § 4.3: IDS on the PC client only; the paper estimates the
		// granularity at ≈ 10 KB.
		if access == client.PC {
			cfg.FullFileSync = false
			cfg.ChunkSize = 10 << 10
		}
		// Table 8 UP: moderate compression on PC, low on mobile, none
		// via browser; DN: compressed for every access method.
		switch access {
		case client.PC:
			cfg.UploadCompression = comp.Moderate
			cfg.BDS = true
		case client.Web:
			cfg.BDS = true
			cfg.BundleSize = 6
		case client.Mobile:
			cfg.UploadCompression = comp.Low
			cfg.BDS = true
			cfg.BundleSize = 7
		}
		cfg.DownloadCompression = comp.High
		// Table 9: dedup via PC client and mobile app, not web.
		cfg.UseDedup = access != client.Web
	case SugarSync:
		// § 4.3: IDS on the PC client; granularity is coarse.
		if access == client.PC {
			cfg.FullFileSync = false
			cfg.ChunkSize = 256 << 10
		}
	case UbuntuOne:
		switch access {
		case client.PC:
			cfg.UploadCompression = comp.Moderate
			cfg.BDS = true
			cfg.DownloadCompression = comp.High
		case client.Web:
			cfg.BDS = true
			cfg.BundleSize = 10
			cfg.DownloadCompression = comp.High
		case client.Mobile:
			cfg.UploadCompression = comp.Low
			// Table 8 DN: Ubuntu One mobile downloads uncompressed.
		}
		cfg.UseDedup = access != client.Web
	case Box:
		cfg.ExtraRTTs = 2
	}
	return cfg
}

// Options customizes a Setup.
type Options struct {
	// Link is the network path (default: Minnesota).
	Link netem.Link
	// Hardware is the client machine (default: M1).
	Hardware hardware.Profile
	// User overrides the account name (default: "alice").
	User string
	// Defer overrides the service's deferment policy (for the ASD and
	// UDS experiments). Nil keeps the service default.
	Defer *deferpolicy.Policy
	// Cloud attaches the client to an existing cloud instance (and its
	// dedup index) instead of creating a fresh one — how cross-user
	// experiments share state. The existing cloud's clock must be the
	// same Setup's clock.
	Cloud *cloud.Cloud
	// Clock and Capture attach to an existing simulation; nil creates
	// fresh ones.
	Clock   *simclock.Clock
	Capture *capture.Capture
	// AutoSyncRemote subscribes the client to cloud change
	// notifications so other devices' commits are mirrored into its
	// folder (multi-device sync).
	AutoSyncRemote bool
	// Tracer, when set, is threaded into the client engine and the
	// network path so the simulation records sync-round, session, and
	// path spans. Build it with obs.NewSimTracer(clock.Now) on the same
	// clock the Setup runs on (see Setup.Clock). Nil disables tracing.
	Tracer *obs.Tracer
}

// Setup is a ready-to-run single-client simulation of one service.
type Setup struct {
	Service Name
	Access  client.AccessMethod
	Clock   *simclock.Clock
	Capture *capture.Capture
	FS      *vfs.FS
	Cloud   *cloud.Cloud
	Client  *client.Client
	Path    *netem.Path
}

// NewSetup builds a simulation of the given service and access method.
// The Reference pseudo-service is PC-only and routes to
// NewReferenceSetup.
func NewSetup(n Name, access client.AccessMethod, opts Options) *Setup {
	if n == Reference {
		if access != client.PC {
			panic("service: the reference design models a PC client only")
		}
		return NewReferenceSetup(opts)
	}
	return assemble(n, access, CloudConfig(n), ClientConfig(n, access),
		Persistent(n, access), opts)
}

// assemble wires one client/cloud pair into a runnable Setup. It
// applies the Options defaults and, for persistent connections,
// pre-establishes the connection: a running PC client has its
// long-lived connection up before any measured operation (the paper's
// captures see Ubuntu One's storage-protocol session and Dropbox's
// notification channel already established). When this Setup owns its
// capture, the startup handshake is dropped from the counters.
func assemble(n Name, access client.AccessMethod, ccfg cloud.Config, cfg client.Config, persistent bool, opts Options) *Setup {
	if opts.Link == (netem.Link{}) {
		opts.Link = netem.Minnesota()
	}
	if opts.Hardware.HashMBps == 0 {
		opts.Hardware = hardware.M1()
	}
	if opts.User == "" {
		opts.User = "alice"
	}
	clk := opts.Clock
	if clk == nil {
		clk = simclock.New()
	}
	cap := opts.Capture
	if cap == nil {
		cap = capture.New()
	}
	cl := opts.Cloud
	if cl == nil {
		cl = cloud.New(ccfg)
	}
	cfg.User = opts.User
	cfg.Hardware = opts.Hardware
	cfg.Device = opts.Hardware.Name
	if opts.Defer != nil {
		cfg.Defer = *opts.Defer
	}
	cfg.AutoSyncRemote = opts.AutoSyncRemote
	cfg.Tracer = opts.Tracer
	conn := wire.NewConn(wire.DefaultParams(), cap)
	path := netem.NewPath(clk, opts.Link, conn, persistent)
	path.SetTracer(opts.Tracer)
	if persistent {
		conn.Open()
		if opts.Capture == nil {
			cap.Reset()
		}
	}
	fs := vfs.New(clk)
	c := client.New(cfg, clk, fs, cl, path)
	return &Setup{
		Service: n, Access: access,
		Clock: clk, Capture: cap, FS: fs, Cloud: cl, Client: c, Path: path,
	}
}
