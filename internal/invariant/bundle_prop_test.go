package invariant_test

import (
	"fmt"
	"net"
	"testing"
	"time"

	"cloudsync/internal/content"
	"cloudsync/internal/invariant"
	"cloudsync/internal/obs/ledger"
	"cloudsync/internal/syncnet"
)

// batchPlan is one generated batched-upload round: which path carries
// it and the files it commits.
type batchPlan struct {
	bundle bool // one UploadBundle vs a lockstep Upload per file
	files  []syncnet.FileUpload
}

// genBatches derives a seeded sequence of small-file batches. Names
// repeat across rounds (with fresh content) so versions advance through
// the batched paths, and sizes straddle the compression and piece
// boundaries without leaving small-file territory.
func genBatches(seed uint64) []batchPlan {
	rng := seed*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9
	next := func(n uint64) uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}
	rounds := 3 + int(next(3))
	plans := make([]batchPlan, rounds)
	for r := range plans {
		count := 1 + int(next(5))
		files := make([]syncnet.FileUpload, count)
		for i := range files {
			size := 64 + int64(next(6000))
			files[i] = syncnet.FileUpload{
				Name: fmt.Sprintf("f%02d", i),
				Data: content.Random(size, int64(seed)*1000+int64(r)*50+int64(i)).Bytes(),
			}
		}
		plans[r] = batchPlan{bundle: next(2) == 0, files: files}
	}
	return plans
}

// runBundlePipe replays a seeded batched-session against a fresh server
// over net.Pipe under the seed's fault schedule: every batch goes
// through UploadBundle or, file by file, through Upload (every file
// fits a delta block, so each rides inline — bundle and inline writes
// of the same names interleave under cuts), every file is downloaded
// back at the end, and the run must satisfy the full invariant set —
// server state converged to the tracker's view (which hashes content,
// so MD5 convergence is implied by byte equality), exact wire balance,
// and exact per-byte ledger attribution on both sides.
func runBundlePipe(seed uint64, plans []batchPlan) []invariant.Violation {
	clientLed := &ledger.Ledger{}
	serverLed := &ledger.Ledger{}
	srv := syncnet.NewServer(syncnet.ServerConfig{Ledger: serverLed})
	sched := syncnet.NewFaultScheduler(planForSeed(seed))

	var prevDone chan struct{}
	dial := func() (net.Conn, error) {
		if prevDone != nil {
			<-prevDone
		}
		clientEnd, serverEnd := net.Pipe()
		done := make(chan struct{})
		prevDone = done
		go func() {
			defer close(done)
			srv.HandleConn(serverEnd)
		}()
		return sched.Wrap(clientEnd), nil
	}
	fail := func(err error) []invariant.Violation {
		return []invariant.Violation{{Invariant: "driver", Detail: err.Error()}}
	}

	conn, err := dial()
	if err != nil {
		return fail(err)
	}
	c, err := syncnet.NewClient(conn, "alice", "bundle-prop",
		syncnet.WithDialer(dial), syncnet.WithLedger(clientLed),
		retryForSeed(seed, func(time.Duration) {}))
	if err != nil {
		return fail(err)
	}

	tr := invariant.NewTracker()
	names := map[string]bool{}
	for _, plan := range plans {
		var stats []syncnet.UploadStats
		if plan.bundle {
			stats, err = c.UploadBundle(plan.files)
		} else {
			stats = make([]syncnet.UploadStats, len(plan.files))
			for i, f := range plan.files {
				if stats[i], err = c.Upload(f.Name, f.Data); err != nil {
					break
				}
			}
		}
		if err != nil {
			c.Close()
			<-prevDone
			return fail(err)
		}
		for i, f := range plan.files {
			tr.RecordUpload(f.Name, f.Data, stats[i].Version)
			names[f.Name] = true
		}
	}
	for name := range names {
		data, err := c.Download(name)
		if err != nil {
			c.Close()
			<-prevDone
			return fail(err)
		}
		tr.RecordDownload(name, data)
	}
	c.Close()
	<-prevDone

	stats := srv.Stats()
	vs := tr.Check(toServerFiles(srv.Snapshot("alice")), invariant.Wire{
		ClientSent:     sched.Stats().BytesWritten,
		ServerReceived: stats.BytesReceived,
		MaxLost:        0,
	})
	clientIn, clientOut := c.WireTotals()
	vs = append(vs, invariant.CheckLedger(clientIn+clientOut, clientLed.Snapshot())...)
	vs = append(vs, invariant.CheckLedger(stats.BytesReceived+stats.BytesSent, serverLed.Snapshot())...)
	return vs
}

// TestSyncnetBundleInvariants is the batched-path acceptance property:
// 120 seeded fault schedules × seeded batch sequences, bundle and
// lockstep inline uploads interleaved, checked for convergence and
// exact per-byte attribution on a synchronous transport.
func TestSyncnetBundleInvariants(t *testing.T) {
	for seed := uint64(0); seed < 120; seed++ {
		plans := genBatches(seed)
		if vs := runBundlePipe(seed, plans); len(vs) > 0 {
			// Shrink to the shortest failing batch prefix.
			k := invariant.ShrinkPrefix(len(plans), func(k int) bool {
				return len(runBundlePipe(seed, plans[:k])) > 0
			})
			t.Fatalf("seed %d: %d violation(s): %v\nminimal failing prefix: %d of %d batches",
				seed, len(vs), vs, k, len(plans))
		}
	}
}
