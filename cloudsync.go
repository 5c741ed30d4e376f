// Package cloudsync is a toolkit for studying the network-level
// efficiency of cloud storage services, reproducing "Towards
// Network-level Efficiency for Cloud Storage Services" (IMC 2014).
//
// It provides a deterministic simulation of the full sync stack — a
// watched sync folder, a client engine with every design choice the
// paper measures (sync granularity, compression, deduplication,
// batched data sync, sync deferment), a cloud back end, and a network
// path with packet-level traffic accounting — plus calibrated profiles
// of the six services the paper studies and the TUE metric itself.
//
// A minimal measurement:
//
//	sim := cloudsync.New(cloudsync.Dropbox, cloudsync.PC)
//	m := sim.Measure(func() { sim.CreateRandomFile("photo.jpg", 1<<20) })
//	fmt.Printf("traffic=%d TUE=%.2f\n", m.Traffic(), cloudsync.TUE(m.Traffic(), 1<<20))
//
// The experiment harness behind every table and figure of the paper
// lives in internal/core and is driven by cmd/tuebench and the
// repository's benchmarks.
package cloudsync

import (
	"fmt"
	"time"

	"cloudsync/internal/client"
	"cloudsync/internal/content"
	"cloudsync/internal/core"
	"cloudsync/internal/deferpolicy"
	"cloudsync/internal/hardware"
	"cloudsync/internal/netem"
	"cloudsync/internal/service"
)

// Service identifies one of the six studied cloud storage services.
type Service = service.Name

// The six services, in the paper's table order.
const (
	GoogleDrive = service.GoogleDrive
	OneDrive    = service.OneDrive
	Dropbox     = service.Dropbox
	Box         = service.Box
	UbuntuOne   = service.UbuntuOne
	SugarSync   = service.SugarSync
	// Reference is the pseudo-service that combines every provider
	// recommendation the paper makes (IDS + BDS + compression +
	// cross-user full-file dedup + adaptive sync defer). PC access only.
	Reference = service.Reference
)

// Services returns all six services.
func Services() []Service { return service.All() }

// AccessMethod is how the simulated user reaches the service.
type AccessMethod = client.AccessMethod

// The three access methods.
const (
	PC     = client.PC
	Web    = client.Web
	Mobile = client.Mobile
)

// TUE computes the paper's Traffic Usage Efficiency metric,
// Eq. (1): total sync traffic over data update size.
func TUE(syncTraffic, dataUpdateSize int64) float64 {
	return core.TUE(syncTraffic, dataUpdateSize)
}

// Option customizes a Simulation.
type Option func(*service.Options)

// FromBeijing places the client at the paper's remote vantage point
// (≈1.6 Mbps up, 200–480 ms RTT).
func FromBeijing() Option {
	return func(o *service.Options) { o.Link = netem.Beijing() }
}

// WithNetwork sets a custom symmetric bandwidth and round-trip time —
// the equivalent of the paper's controlled packet filters.
func WithNetwork(bitsPerSecond int64, rtt time.Duration) Option {
	return func(o *service.Options) { o.Link = netem.Custom(bitsPerSecond, rtt) }
}

// WithHardware selects the client machine by its Table 4 name
// ("M1"–"M4", "B1"–"B4").
func WithHardware(name string) Option {
	return func(o *service.Options) {
		for _, p := range hardware.All() {
			if p.Name == name {
				o.Hardware = p
				return
			}
		}
		panic(fmt.Sprintf("cloudsync: unknown hardware profile %q", name))
	}
}

// WithUser sets the account name (default "alice").
func WithUser(user string) Option {
	return func(o *service.Options) { o.User = user }
}

// WithAdaptiveSyncDefer replaces the service's deferment policy with
// the paper's proposed ASD mechanism (Eq. 2).
func WithAdaptiveSyncDefer(epsilon, tmax time.Duration) Option {
	return func(o *service.Options) {
		o.Defer = &deferpolicy.Policy{Kind: deferpolicy.ASD, Epsilon: epsilon, TMax: tmax}
	}
}

// SharedCloud attaches this simulation to another simulation's cloud,
// clock, and capture — how cross-user scenarios are built.
func SharedCloud(other *Simulation) Option {
	return func(o *service.Options) {
		o.Cloud = other.setup.Cloud
		o.Clock = other.setup.Clock
		o.Capture = other.setup.Capture
	}
}

// SharedCloudSeparateCapture attaches to another simulation's cloud
// and clock but keeps a private traffic capture, so each device's link
// can be measured independently (multi-device scenarios).
func SharedCloudSeparateCapture(other *Simulation) Option {
	return func(o *service.Options) {
		o.Cloud = other.setup.Cloud
		o.Clock = other.setup.Clock
	}
}

// WithAutoSyncRemote mirrors other devices' commits of the same
// account into this simulation's folder — the notification fan-out of
// the paper's Fig. 1.
func WithAutoSyncRemote() Option {
	return func(o *service.Options) { o.AutoSyncRemote = true }
}

// Simulation is one client↔cloud simulation of a service.
type Simulation struct {
	setup *service.Setup
	seed  int64
}

// New builds a simulation of the given service and access method.
func New(svc Service, access AccessMethod, opts ...Option) *Simulation {
	var o service.Options
	for _, opt := range opts {
		opt(&o)
	}
	return &Simulation{setup: service.NewSetup(svc, access, o), seed: 1}
}

func (s *Simulation) nextSeed() int64 {
	s.seed++
	return s.seed
}

// CreateRandomFile puts an incompressible ("highly compressed") file
// of the given size into the sync folder.
func (s *Simulation) CreateRandomFile(name string, size int64) error {
	return s.setup.FS.Create(name, content.Random(size, s.nextSeed()))
}

// CreateTextFile puts a compressible text file (random English words)
// of the given size into the sync folder.
func (s *Simulation) CreateTextFile(name string, size int64) error {
	return s.setup.FS.Create(name, content.Text(size, s.nextSeed()))
}

// CreateFileFromBytes puts literal data into the sync folder.
func (s *Simulation) CreateFileFromBytes(name string, data []byte) error {
	return s.setup.FS.Create(name, content.FromBytes(data))
}

// Append grows a file by n bytes of content-consistent data.
func (s *Simulation) Append(name string, n int64) error {
	return s.setup.FS.Append(name, n)
}

// ModifyByte flips one byte of a file at the given offset.
func (s *Simulation) ModifyByte(name string, off int64) error {
	return s.setup.FS.ModifyByte(name, off)
}

// Delete removes a file from the sync folder.
func (s *Simulation) Delete(name string) error {
	return s.setup.FS.Delete(name)
}

// Download fetches a file's content from the cloud (as Experiment 4's
// DN phase does).
func (s *Simulation) Download(name string) error {
	return s.setup.Client.Download(name, nil)
}

// At schedules an action at an absolute virtual time — the building
// block for frequent-modification workloads.
func (s *Simulation) At(t time.Duration, fn func()) {
	s.setup.Clock.Post(t, fn)
}

// Now reports the current virtual time.
func (s *Simulation) Now() time.Duration { return s.setup.Clock.Now() }

// Run drives the simulation until every pending event (sync deferment
// timers, in-flight sessions) has drained.
func (s *Simulation) Run() { s.setup.Clock.Run() }

// Measurement is the traffic one measured operation caused: Up
// (client→cloud) and Down (cloud→client) wire bytes, and Causes, their
// exact split by cause (metadata, payload, framing, …). Traffic()
// reports Up + Down.
type Measurement = core.Measurement

// Measure runs op — any sequence of the simulation's operations —
// drains the simulation, and reports the traffic op caused on this
// simulation's link, and nothing from before it. It is the measurement
// behind every table of the paper's reproduction, and it panics unless
// the causes sum exactly to the wire bytes.
func (s *Simulation) Measure(op func()) Measurement { return core.Measure(s.setup, op) }

// Sessions reports how many sync sessions the client has dispatched.
func (s *Simulation) Sessions() int { return s.setup.Client.Stats().Sessions }

// DedupSkips reports how many uploads deduplication fully avoided.
func (s *Simulation) DedupSkips() int { return s.setup.Client.Stats().DedupSkips }

// CloudFileSize reports the size of a file as stored in the cloud, or
// an error if it is not there.
func (s *Simulation) CloudFileSize(name string) (int64, error) {
	e, ok := s.setup.Cloud.File(s.setup.Client.Config().User, name)
	if !ok {
		return 0, fmt.Errorf("cloudsync: %q not in cloud", name)
	}
	return e.Blob.Size(), nil
}
