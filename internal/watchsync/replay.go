package watchsync

import (
	"bytes"
	"fmt"
	"net"
	"time"

	"cloudsync/internal/content"
	"cloudsync/internal/deferpolicy"
	"cloudsync/internal/obs/ledger"
	"cloudsync/internal/syncnet"
)

// ReplayConfig parameterizes a frequent-modification replay: Files
// files are created, then each is appended to Edits times every
// Interval of virtual time — the pathological workload of the paper's
// §5 (frequent small modifications), where a naive client syncs every
// keystroke and an adaptive one batches them.
type ReplayConfig struct {
	Files    int
	Edits    int
	Interval time.Duration
	// Step is the virtual poll interval (how often the pipeline looks).
	Step time.Duration
	// InitialSize is each file's starting size; EditBytes is appended
	// per edit.
	InitialSize int
	EditBytes   int
	Seed        int64
	Defer       deferpolicy.Policy
	Debounce    time.Duration
	// Workers is the executor pool size (0 = 1).
	Workers int
}

// ReplayResult is what one replay cost and achieved.
type ReplayResult struct {
	// Client/server wire totals (both directions each).
	ClientWire int64
	ServerWire int64
	// Exact per-cause attribution on each end.
	ClientLedger ledger.Snapshot
	ServerLedger ledger.Snapshot
	// FreshBytes is the total content the workload produced locally —
	// the TUE denominator.
	FreshBytes int64
	// Transfer counts.
	Uploads, Deltas, Deferred int
	// Rounds is how many virtual ticks ran; SyncPoints is how many of
	// them moved bytes.
	Rounds, SyncPoints int
}

// TUE is the replay's traffic utilization efficiency: wire bytes spent
// per byte of fresh local data (client side, both directions — the
// paper's Eq. 1 measured at the access link).
func (r *ReplayResult) TUE() float64 {
	if r.FreshBytes == 0 {
		return 0
	}
	return float64(r.ClientWire) / float64(r.FreshBytes)
}

// ReplayFreqMod runs the frequent-modification workload through a real
// client/server pair over in-memory pipes, driven entirely on the
// virtual clock (no sleeps — a multi-minute trace replays in
// milliseconds). It returns the exact wire cost on both ends, with
// per-cause ledgers, and fails if the server did not converge to the
// local tree by the end of the run.
func ReplayFreqMod(cfg ReplayConfig) (*ReplayResult, error) {
	if cfg.Files <= 0 || cfg.Edits < 0 {
		return nil, fmt.Errorf("watchsync: replay needs at least one file")
	}
	if cfg.Step <= 0 {
		cfg.Step = 100 * time.Millisecond
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.InitialSize <= 0 {
		cfg.InitialSize = 16 << 10
	}
	if cfg.EditBytes <= 0 {
		cfg.EditBytes = 256
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}

	srvLed := ledger.New()
	srv := syncnet.NewServer(syncnet.ServerConfig{Ledger: srvLed})
	defer srv.Close()

	cliLed := ledger.New()
	clients := make([]*syncnet.Client, workers)
	for i := range clients {
		cc, sc := net.Pipe()
		go srv.HandleConn(sc)
		c, err := syncnet.NewClient(cc, "replay", fmt.Sprintf("w%d", i),
			syncnet.WithLedger(cliLed))
		if err != nil {
			return nil, err
		}
		defer c.Close()
		clients[i] = c
	}

	src := NewMemSource()
	exec := NewExecutor(clients...)
	pipe := NewPipeline(src, exec, Config{Debounce: cfg.Debounce, Defer: cfg.Defer})
	if err := pipe.Bootstrap(); err != nil {
		return nil, err
	}

	res := &ReplayResult{}

	// The edit script, precomputed: file i is created at t=0 and edited
	// at k*Interval for k=1..Edits. Content is deterministic from the
	// seed; every edit appends fresh bytes (an append is the friendliest
	// case for delta sync and the worst for naive full re-upload).
	files := make([][]byte, cfg.Files)
	for i := range files {
		files[i] = content.Random(int64(cfg.InitialSize), cfg.Seed+int64(i)*7919).Bytes()
		src.WriteFile(fname(i), files[i], 0)
		res.FreshBytes += int64(len(files[i]))
	}

	end := time.Duration(cfg.Edits) * cfg.Interval
	nextEdit := make([]int, cfg.Files) // next edit index per file (1-based)
	for i := range nextEdit {
		nextEdit[i] = 1
	}

	tick := func(now time.Duration) error {
		if err := pipe.Poll(now); err != nil {
			return err
		}
		st, _, _, err := pipe.Tick(now)
		if err != nil {
			return err
		}
		res.Rounds++
		res.Uploads += st.Uploads
		res.Deltas += st.Deltas
		res.Deferred += st.Deferred
		if st.Uploads+st.Deltas+st.Deletes > 0 {
			res.SyncPoints++
		}
		if st.Errors > 0 {
			return fmt.Errorf("watchsync: replay transfer errors at t=%v", now)
		}
		return nil
	}

	for now := time.Duration(0); now <= end; now += cfg.Step {
		for i := 0; i < cfg.Files; i++ {
			for nextEdit[i] <= cfg.Edits && time.Duration(nextEdit[i])*cfg.Interval <= now {
				at := time.Duration(nextEdit[i]) * cfg.Interval
				extra := content.Random(int64(cfg.EditBytes),
					cfg.Seed+int64(i)*7919+int64(nextEdit[i])*104729).Bytes()
				files[i] = append(files[i], extra...)
				src.WriteFile(fname(i), files[i], at)
				res.FreshBytes += int64(len(extra))
				nextEdit[i]++
			}
		}
		if err := tick(now); err != nil {
			return nil, err
		}
	}

	// Quiesce: keep ticking past the last edit until every deferred or
	// buffered change has drained. TMax bounds how long that can take.
	now := end
	for i := 0; pipe.PendingPaths() > 0; i++ {
		if i > 10_000 {
			return nil, fmt.Errorf("watchsync: replay did not quiesce (%d paths pending)", pipe.PendingPaths())
		}
		now += cfg.Step
		if err := tick(now); err != nil {
			return nil, err
		}
	}

	// Convergence oracle: the server's live files must equal the local
	// tree exactly.
	snap := srv.Snapshot("replay")
	local := src.Files()
	for name, want := range local {
		got, ok := snap[name]
		if !ok || got.Deleted {
			return nil, fmt.Errorf("watchsync: replay did not converge: %s missing remotely", name)
		}
		if !bytes.Equal(got.Data, want) {
			return nil, fmt.Errorf("watchsync: replay did not converge: %s differs", name)
		}
	}
	for name, f := range snap {
		if _, ok := local[name]; !ok && !f.Deleted {
			return nil, fmt.Errorf("watchsync: replay did not converge: %s exists remotely only", name)
		}
	}

	// Close the clients before snapshotting the ledgers so residual
	// partial-frame bytes are swept and the balance is exact.
	var in, out int64
	for _, c := range clients {
		ci, co := c.WireTotals()
		in += ci
		out += co
		if err := c.Close(); err != nil {
			return nil, err
		}
	}
	res.ClientWire = in + out
	res.ClientLedger = cliLed.Snapshot()
	// Drain the server before snapshotting its side: Client.Close only
	// closes the client half of the pipe, and the handler goroutine may
	// still be accounting the final message. Close waits for all
	// handlers (and is idempotent, so the defer stays harmless).
	if err := srv.Close(); err != nil {
		return nil, err
	}
	stats := srv.Stats()
	res.ServerWire = stats.BytesReceived + stats.BytesSent
	res.ServerLedger = srvLed.Snapshot()
	return res, nil
}

func fname(i int) string { return fmt.Sprintf("doc-%02d.txt", i) }
