package main

import (
	"crypto/md5"
	"fmt"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"cloudsync/internal/obs"
	"cloudsync/internal/obs/ledger"
	"cloudsync/internal/parallel"
	"cloudsync/internal/syncnet"
)

// numClients is the closed-loop width: two client goroutines, one
// connection each, against an in-process server on loopback TCP. It is
// a constant, not a flag: the reference box has two CPUs, every
// recorded number assumes two, and mixed-rw is by construction one
// writer plus one reader.
const numClients = 2

// runConfig is one workload run.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64 // cap on the measured time, all rounds together; scales the op budget
	ops      int     // > 0: exactly this many ops per client and round, no clock; set by the package's tests only
	traced   bool    // per-layer pass instead of the end-to-end pass
	rounds   int     // replicas measured; the median round is reported
	outDir   string  // where state dirs, traces and result files go
	pop      population
}

// instance is one workload after set-up, ready to be measured.
type instance interface {
	// op performs client c's i-th operation and reports the user files
	// it synced, the bytes the user created, edited or fetched, and the
	// nanoseconds the client call itself took. With a recorder (traced
	// pass) it also records the call as a syncnet.call span and replays
	// the op's inputs through each layer under layer.* spans.
	op(c, i int, rp *replayer) (files int, userBytes, callNS int64, err error)
	// wire is the cumulative wire bytes, both directions.
	wire() int64
	// verify checks the program's outputs against the generated inputs
	// once the measurement is over.
	verify() error
	// layers adds the workload's own per-layer figures (traced pass).
	layers(out map[string]float64, t *totals)
	// close stops everything the instance started and waits for it.
	close() error
}

// totals is what one measured phase did.
type totals struct {
	samples   []sample
	wall      time.Duration
	attempted int64
	failed    int64
	files     int64
	userBytes int64
	wireBytes int64
	firstErr  error
}

// add folds one round's totals into a run's.
func (t *totals) add(r totals) {
	t.samples = append(t.samples, r.samples...)
	t.wall += r.wall
	t.attempted += r.attempted
	t.failed += r.failed
	t.files += r.files
	t.userBytes += r.userBytes
	t.wireBytes += r.wireBytes
	if t.firstErr == nil {
		t.firstErr = r.firstErr
	}
}

// measure drives inst closed-loop, one goroutine per entry of budgets:
// client c issues its next operation only after the previous one
// returned, until it has issued budgets[c] operations or the window has
// closed, whichever comes first (a zero window never closes). The
// budget, not the clock, is what normally ends a run: equal op counts
// make wire bytes, TUE and — on workloads whose server state grows with
// every file — peak memory comparable between two commits of different
// speed; the window only keeps a slow box inside the time cap.
//
// next[c] is client c's next operation index and is advanced, so a
// second phase continues the first one's sequence. A client stops at
// its first failed operation — the failure is counted, and a broken
// connection is not allowed to spin out millions of instant errors.
func measure(inst instance, window time.Duration, budgets []int, next []int, rps []*replayer) totals {
	per := make([]totals, len(budgets))
	w0 := inst.wire()
	start := time.Now()
	deadline := start.Add(window)
	var wg sync.WaitGroup
	for c, budget := range budgets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := &per[c]
			t.samples = make([]sample, 0, budget)
			var rp *replayer
			if rps != nil {
				rp = rps[c]
			}
			for i := next[c]; i < next[c]+budget; i++ {
				if window > 0 && !time.Now().Before(deadline) {
					break
				}
				if rp != nil {
					rp.beginOp()
				}
				files, ub, callNS, err := inst.op(c, i, rp)
				if rp != nil {
					rp.endOp()
				}
				t.attempted++
				if err != nil {
					t.failed++
					t.firstErr = fmt.Errorf("client %d op %d: %w", c, i, err)
					break
				}
				t.files += int64(files)
				t.userBytes += ub
				t.samples = append(t.samples, sample{lat: callNS, files: int32(files), client: int32(c)})
			}
			next[c] += int(t.attempted)
		}()
	}
	wg.Wait()
	var sum totals
	for _, t := range per {
		sum.add(t)
	}
	sum.wall, sum.wireBytes = time.Since(start), inst.wire()-w0
	return sum
}

// live is the shared scaffolding of the five live workloads: one
// in-process syncnet server on loopback TCP and numClients dialled
// clients. On the end-to-end pass every tracer, registry and ledger is
// nil; the traced pass attaches the hooks the program already exposes
// as public configuration.
type live struct {
	srv    *syncnet.Server
	cfg    syncnet.ServerConfig
	addr   string
	cls    []*syncnet.Client
	reg    *obs.Registry
	srvLed *ledger.Ledger
	cliLed *ledger.Ledger
}

func openLive(cfg syncnet.ServerConfig, users []string, traced bool) (*live, error) {
	l := &live{cfg: cfg}
	if traced {
		l.reg = obs.NewRegistry()
		l.srvLed, l.cliLed = ledger.New(), ledger.New()
		l.cfg.Metrics, l.cfg.Ledger = l.reg, l.srvLed
	}
	if err := l.serve(); err != nil {
		return nil, err
	}
	for c, user := range users {
		cl, err := l.dial(user, "bench-"+strconv.Itoa(c))
		if err != nil {
			l.close()
			return nil, err
		}
		l.cls = append(l.cls, cl)
	}
	return l, nil
}

// serve opens the server from l.cfg and starts it on a fresh loopback
// port.
func (l *live) serve() error {
	srv, err := syncnet.OpenServer(l.cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	l.srv, l.addr = srv, ln.Addr().String()
	go srv.Serve(ln) // returns once srv.Close closes the listener; Close waits for it
	return nil
}

func (l *live) dial(user, device string) (*syncnet.Client, error) {
	opts := []syncnet.ClientOption{syncnet.WithCompression(l.cfg.Compression)}
	if l.reg != nil {
		opts = append(opts, syncnet.WithLedger(l.cliLed), syncnet.WithClientMetrics(l.reg))
	}
	return syncnet.Dial("tcp", l.addr, user, device, opts...)
}

// layers: most live workloads have no per-layer figure of their own.
func (l *live) layers(map[string]float64, *totals) {}

// hooks exposes the scaffolding to the traced pass's counter readings.
func (l *live) hooks() *live { return l }

// detachHooks drops the registry and ledgers, so that a server reopened
// for verification is not charged to the traced phase's books.
func (l *live) detachHooks() {
	l.reg, l.srvLed, l.cliLed = nil, nil, nil
	l.cfg.Metrics, l.cfg.Ledger = nil, nil
}

func (l *live) wire() int64 {
	st := l.srv.Stats()
	return st.BytesReceived + st.BytesSent
}

// closeClients ends every client session; with ledgers attached it
// then asserts the exactness contract on the client side: the ledger's
// total equals the bytes the clients metered on their connections.
func (l *live) closeClients() error {
	var in, out int64
	for _, cl := range l.cls {
		cl.Close() // error dropped: the session is over either way
		i, o := cl.WireTotals()
		in, out = in+i, out+o
	}
	l.cls = nil
	if l.cliLed != nil {
		if got := l.cliLed.Total(); got != in+out {
			return fmt.Errorf("client ledger total %d != client wire total %d", got, in+out)
		}
	}
	return nil
}

// close stops clients and server and, on the traced pass, asserts the
// server-side ledger equals the server-side wire total.
func (l *live) close() error {
	err := l.closeClients()
	if l.srv == nil {
		return err
	}
	if cerr := l.srv.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if l.srvLed != nil && err == nil {
		if got, want := l.srvLed.Total(), l.wire(); got != want {
			err = fmt.Errorf("server ledger total %d != server wire total %d", got, want)
		}
	}
	l.srv = nil
	return err
}

// hist reads one registry histogram's exact running totals. Only Sum
// and Count are used: the power-of-two buckets are too coarse to quote
// a quantile from.
func (l *live) hist(name string) (sum, count int64) {
	h := l.reg.Histogram(name, "")
	return h.Sum(), h.Count()
}

// checkContent compares the server's stored content of user/name with
// the MD5 of what the benchmark generated.
func checkContent(srv *syncnet.Server, user, name string, want [md5.Size]byte) error {
	got, ok := srv.FileContent(user, name)
	if !ok {
		return fmt.Errorf("%s/%s: missing on the server", user, name)
	}
	if md5.Sum(got) != want {
		return fmt.Errorf("%s/%s: server content differs from the generated input", user, name)
	}
	return nil
}

// resetPeakRSS drops the kernel's resident high-water mark to the
// current RSS (clear_refs code 5), so that each round reports its own
// peak. Best effort: where the knob is missing the peaks are cumulative
// and the median round's is still a stable figure.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // absence of the knob is the documented fallback
}

// peakRSSMB is the process's resident high-water mark (Linux VmHWM).
func peakRSSMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// liveHeapMB is the heap still reachable after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// pinRuntime fixes the parallelism every recorded number assumes.
func pinRuntime() {
	runtime.GOMAXPROCS(numClients)
	parallel.SetWorkers(numClients)
}
