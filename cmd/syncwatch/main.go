// Command syncwatch is the watch-mode sync daemon: it mirrors a local
// directory to a running syncd through the full watch-mode pipeline —
// polling observer → debounced change buffer → pure planner →
// parallel executor → atomically persisted baseline. Sync deferment is
// one deferpolicy.Policy value, the same one the simulator steps:
// -defer selects its kind and that kind's flags its parameters; a
// parameter the paper forbids (an ASD ε outside (0, 1 s], a zero
// -tmax, a negative -defer-fixed, a zero UDS threshold or delay) is
// refused before anything runs. The durable client state (the baseline)
// lives under -state-dir, DIR/.syncwatch by default; a crash at any
// point leaves either the old baseline or the new one, never a torn
// file (see docs/DURABILITY.md).
//
// Usage:
//
//	syncd -addr 127.0.0.1:7777 &
//	syncwatch -dir ~/Sync -addr 127.0.0.1:7777 -user alice -defer asd
//
// Modes:
//
//	-dry-run          plan against the persisted baseline and print the
//	                  action table without touching the network
//	-replay freqmod   replay the frequent-modification workload against
//	                  an in-memory server, comparing the configured
//	                  defer policy with no-defer (-explain adds per-cause
//	                  traffic attribution and TUE deltas)
//	-once             sync until converged, then exit
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"cloudsync/internal/comp"
	"cloudsync/internal/deferpolicy"
	"cloudsync/internal/dirwatch"
	"cloudsync/internal/planner"
	"cloudsync/internal/protocol"
	"cloudsync/internal/syncnet"
	"cloudsync/internal/watchsync"
)

type options struct {
	dir      string
	addr     string
	user     string
	device   string
	interval time.Duration
	debounce time.Duration
	stateDir string
	baseline string
	workers  int
	compress bool
	once     bool

	deferMode string
	fixedT    time.Duration
	epsilon   time.Duration
	tmax      time.Duration
	threshold int64
	maxDelay  time.Duration

	dryRun  bool
	replay  string
	explain bool
	files   int
	edits   int
	editGap time.Duration
}

func main() {
	var o options
	register(flag.CommandLine, &o)
	flag.Parse()

	if o.stateDir == "" {
		o.stateDir = filepath.Join(o.dir, ".syncwatch")
	}
	if o.baseline == "" {
		o.baseline = filepath.Join(o.stateDir, "baseline.json")
	}

	var err error
	switch {
	case o.dryRun:
		err = runDryRun(o, os.Stdout)
	case o.replay != "":
		err = runReplay(o, os.Stdout)
	default:
		err = runDaemon(o, nil)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "syncwatch: %v\n", err)
		os.Exit(1)
	}
}

// register binds every command-line flag to its field of o.
func register(fs *flag.FlagSet, o *options) {
	fs.StringVar(&o.dir, "dir", ".", "directory to watch and sync")
	fs.StringVar(&o.addr, "addr", "127.0.0.1:7777", "syncd address")
	fs.StringVar(&o.user, "user", "alice", "account name")
	fs.StringVar(&o.device, "device", "syncwatch", "device name")
	fs.DurationVar(&o.interval, "interval", time.Second, "poll interval")
	fs.DurationVar(&o.debounce, "debounce", 500*time.Millisecond, "change buffer quiet window")
	fs.StringVar(&o.stateDir, "state-dir", "",
		"durable client state directory (default DIR/.syncwatch)")
	fs.StringVar(&o.baseline, "baseline", "", "baseline path (default STATE-DIR/baseline.json)")
	fs.IntVar(&o.workers, "workers", 2, "parallel transfer workers")
	fs.BoolVar(&o.compress, "compress", true, "compress uploads (must match syncd)")
	fs.BoolVar(&o.once, "once", false, "sync until converged, then exit")
	fs.StringVar(&o.deferMode, "defer", "none", "sync deferment policy: none, fixed, asd, uds")
	fs.DurationVar(&o.fixedT, "defer-fixed", 5*time.Second, "deferment for -defer fixed")
	fs.DurationVar(&o.epsilon, "epsilon", 100*time.Millisecond, "ASD epsilon (Eq. 2)")
	fs.DurationVar(&o.tmax, "tmax", 10*time.Second, "ASD maximum deferment (Eq. 2)")
	fs.Int64Var(&o.threshold, "uds-threshold", 1<<20, "UDS size threshold (bytes)")
	fs.DurationVar(&o.maxDelay, "uds-delay", 4*time.Second, "UDS maximum linger")
	fs.BoolVar(&o.dryRun, "dry-run", false, "print the plan against the baseline and exit")
	fs.StringVar(&o.replay, "replay", "", "replay a canned workload (freqmod) and exit")
	fs.BoolVar(&o.explain, "explain", false, "with -replay: print per-cause ledgers and TUE deltas")
	fs.IntVar(&o.files, "files", 2, "with -replay: files in the workload")
	fs.IntVar(&o.edits, "edits", 8, "with -replay: edits per file")
	fs.DurationVar(&o.editGap, "edit-interval", 500*time.Millisecond, "with -replay: virtual time between edits")
}

// deferPolicy translates the policy flags, refusing parameters the
// paper does not allow (deferpolicy.Policy.Validate).
func deferPolicy(o options) (deferpolicy.Policy, error) {
	var p deferpolicy.Policy
	switch o.deferMode {
	case "none":
	case "fixed":
		p = deferpolicy.Policy{Kind: deferpolicy.Fixed, T: o.fixedT}
	case "asd":
		p = deferpolicy.Policy{Kind: deferpolicy.ASD, Epsilon: o.epsilon, TMax: o.tmax}
	case "uds":
		p = deferpolicy.Policy{Kind: deferpolicy.UDS, Threshold: o.threshold, MaxDelay: o.maxDelay}
	default:
		return p, fmt.Errorf("unknown -defer mode %q", o.deferMode)
	}
	if err := p.Validate(); err != nil {
		return p, fmt.Errorf("-defer %s: %w", o.deferMode, err)
	}
	return p, nil
}

// ignored filters hidden files, editor droppings, and the syncwatch
// state directory itself out of the watched tree.
func ignored(path string) bool {
	for _, seg := range strings.Split(path, "/") {
		if strings.HasPrefix(seg, ".") || strings.HasSuffix(seg, "~") {
			return true
		}
	}
	return false
}

// runDryRun plans one round against the persisted baseline — remote
// unknown, no write timestamps, so the plan depends only on tree
// content and baseline — and prints the stable action table. It never
// opens a connection.
func runDryRun(o options, out io.Writer) error {
	w, err := dirwatch.New(o.dir)
	if err != nil {
		return err
	}
	w.Ignore = ignored
	changes, err := w.Scan()
	if err != nil {
		return err
	}
	baseline, err := watchsync.LoadBaseline(o.baseline)
	if err != nil {
		return err
	}
	in := planner.Input{Baseline: baseline}
	present := make(map[string]bool, len(changes))
	for _, ch := range changes {
		if ch.Op == dirwatch.Delete {
			continue // first scan reports only creates
		}
		data, err := w.Read(ch.Path)
		if err != nil {
			return err
		}
		present[ch.Path] = true
		in.Changes = append(in.Changes, planner.Change{
			Path: ch.Path, Size: int64(len(data)), Hash: protocol.Sum(data),
		})
	}
	// Baseline entries not on disk anymore are pending removals.
	removed := make([]string, 0)
	for path := range baseline {
		if !present[path] {
			removed = append(removed, path)
		}
	}
	sort.Strings(removed)
	for _, path := range removed {
		in.Changes = append(in.Changes, planner.Change{Path: path, Remove: true})
	}
	_, err = io.WriteString(out, planner.FormatTable(planner.Plan(in)))
	return err
}

// runReplay replays the named workload under the configured defer
// policy AND under no-defer, then prints the comparison — the paper's
// frequent-modification experiment as a command.
func runReplay(o options, out io.Writer) error {
	if o.replay != "freqmod" {
		return fmt.Errorf("unknown -replay workload %q (have: freqmod)", o.replay)
	}
	fallback := o.deferMode == "none"
	if fallback {
		o.deferMode = "asd"
	}
	policy, err := deferPolicy(o)
	if err != nil {
		return err
	}
	if fallback {
		fmt.Fprintf(out, "(-defer none would compare no-defer against itself; using asd)\n\n")
	}
	base := watchsync.ReplayConfig{
		Files: o.files, Edits: o.edits, Interval: o.editGap,
		Step: o.editGap / 5, Seed: 42, Debounce: 0,
	}
	noneCfg, polCfg := base, base
	polCfg.Defer = policy

	none, err := watchsync.ReplayFreqMod(noneCfg)
	if err != nil {
		return err
	}
	pol, err := watchsync.ReplayFreqMod(polCfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "freqmod: %d files, %d edits each, one edit per %v\n\n",
		o.files, o.edits, o.editGap)
	fmt.Fprintf(out, "%-22s %14s %14s\n", "", "no-defer", policy.Kind.String())
	row := func(label string, a, b any) { fmt.Fprintf(out, "%-22s %14v %14v\n", label, a, b) }
	row("sync points", none.SyncPoints, pol.SyncPoints)
	row("full uploads", none.Uploads, pol.Uploads)
	row("delta syncs", none.Deltas, pol.Deltas)
	row("deferred rounds", none.Deferred, pol.Deferred)
	row("client wire bytes", none.ClientWire, pol.ClientWire)
	row("server wire bytes", none.ServerWire, pol.ServerWire)
	row("fresh bytes", none.FreshBytes, pol.FreshBytes)
	row("TUE", fmt.Sprintf("%.3f", none.TUE()), fmt.Sprintf("%.3f", pol.TUE()))
	saved := none.ClientWire - pol.ClientWire
	fmt.Fprintf(out, "\n%v saves %d wire bytes (%.1f%%), TUE %.3f -> %.3f\n",
		policy.Kind, saved, 100*float64(saved)/float64(none.ClientWire),
		none.TUE(), pol.TUE())

	if o.explain {
		fmt.Fprintf(out, "\n%s\n", none.ClientLedger.Table("no-defer client traffic by cause"))
		fmt.Fprintf(out, "%s\n", pol.ClientLedger.Table(policy.Kind.String()+" client traffic by cause"))
		fmt.Fprintf(out, "per-cause delta (no-defer minus %v):\n", policy.Kind)
		diff := none.ClientLedger
		for i := range diff {
			diff[i] -= pol.ClientLedger[i]
		}
		fmt.Fprintf(out, "%s\n", diff.Table("saved by deferment"))
	}
	return nil
}

// runDaemon is the live loop: wall time is mapped onto the virtual
// clock from a startup epoch, and the pipeline's wake hints bound each
// sleep. stop, when non-nil, requests a clean shutdown (tests use it;
// the CLI runs until killed).
func runDaemon(o options, stop <-chan struct{}) error {
	policy, err := deferPolicy(o)
	if err != nil {
		return err
	}
	if o.workers < 1 {
		o.workers = 1
	}
	if err := os.MkdirAll(filepath.Dir(o.baseline), 0o755); err != nil {
		return err
	}
	w, err := dirwatch.New(o.dir)
	if err != nil {
		return err
	}
	w.Ignore = ignored

	var copts []syncnet.ClientOption
	if o.compress {
		copts = append(copts, syncnet.WithCompression(comp.High))
	}
	clients := make([]*syncnet.Client, o.workers)
	for i := range clients {
		c, err := syncnet.Dial("tcp", o.addr, o.user, fmt.Sprintf("%s-w%d", o.device, i), copts...)
		if err != nil {
			return err
		}
		defer c.Close()
		clients[i] = c
	}

	epoch := time.Now()
	src := watchsync.NewDirSource(w, epoch)
	pipe := watchsync.NewPipeline(src, watchsync.NewExecutor(clients...), watchsync.Config{
		Debounce:     o.debounce,
		Defer:        policy,
		BaselinePath: o.baseline,
	})
	if err := pipe.Bootstrap(); err != nil {
		return err
	}
	log.Printf("syncwatch: mirroring %s to %s as %s (poll %v, debounce %v, defer %v, %d workers)",
		o.dir, o.addr, o.user, o.interval, o.debounce, policy.Kind, o.workers)

	synced := false
	for {
		now := time.Since(epoch)
		if err := pipe.Poll(now); err != nil {
			log.Printf("syncwatch: scan: %v", err)
		}
		st, wakeAt, wake, err := pipe.Tick(now)
		if err != nil {
			return err
		}
		if st.Uploads+st.Deltas+st.Deletes+st.Errors > 0 {
			log.Printf("syncwatch: %d up, %d delta, %d del, %d deferred, %d errors (%d payload B)",
				st.Uploads, st.Deltas, st.Deletes, st.Deferred, st.Errors, st.WireBytes)
		}
		if o.once {
			if pipe.PendingPaths() == 0 && synced {
				return nil
			}
			synced = true
		}
		sleep := o.interval
		if wake {
			if d := wakeAt - time.Since(epoch); d < sleep {
				sleep = d
			}
		}
		if sleep < 10*time.Millisecond {
			sleep = 10 * time.Millisecond
		}
		select {
		case <-stop:
			return nil
		case <-time.After(sleep):
		}
	}
}
