package core

import (
	"fmt"
	"time"

	"cloudsync/internal/chunker"
	"cloudsync/internal/client"
	"cloudsync/internal/content"
	"cloudsync/internal/metrics"
	"cloudsync/internal/parallel"
	"cloudsync/internal/service"
	"cloudsync/internal/trace"
)

// ReplayResult aggregates one service's replay of the trace.
type ReplayResult struct {
	Service string
	Files   int
	// UpdateBytes is the total data-update volume (creations plus
	// modification edits) — TUE's denominator.
	UpdateBytes int64
	Traffic     int64
	TUE         float64
	// FullTraceGB extrapolates the traffic to the full 222,632-file
	// population; CostUSD prices it at the paper's Amazon S3 rate
	// ($0.05/GB), the arithmetic behind its "$260,000 every day"
	// estimate. All sync traffic is priced, a deliberate
	// simplification.
	FullTraceGB float64
	CostUSD     float64
}

// s3DollarsPerGB is the Amazon S3 outbound price the paper's § 1 cost
// estimate uses.
const s3DollarsPerGB = 0.05

// replayBlob picks content for a trace record: compressible records up
// to the exact-compression threshold become text (so compression-aware
// services benefit), everything else is incompressible random data.
// Duplicate records share a generator seed, so content identity — and
// therefore deduplication — carries over from the trace. idOffset
// shifts the seed without changing size or compressibility: the scale
// replay gives each cloned user population its own content identities.
func replayBlob(r trace.Record, idOffset int64) *content.Blob {
	if r.EffectivelyCompressible() && r.OriginalSize <= 4<<20 {
		return content.Text(r.OriginalSize, r.ContentID+idOffset)
	}
	return content.Random(r.OriginalSize, r.ContentID+idOffset)
}

// scheduleRecord schedules one trace record onto a setup's clock: the
// creation at the record's trace timestamp and, for modified records,
// the modification events (1 % of the file, capped at 64 KB, per edit)
// spread between creation and last-modification time. It returns the
// record's contribution to the data-update size — TUE's denominator.
// All content seeds derive from the record's ContentID (plus the scale
// replay's clone offset), so scheduling draws no global seeds and is
// safe to run for independent setups in parallel.
func scheduleRecord(s *service.Setup, name string, r trace.Record, idOffset int64) int64 {
	update := r.OriginalSize
	blob := replayBlob(r, idOffset)
	at := r.Created.Sub(trace.Epoch)
	s.Clock.Post(at, func() {
		if err := s.FS.Create(name, blob); err != nil {
			panic(fmt.Sprintf("core: replay create: %v", err))
		}
	})
	if r.Mods == 0 {
		return update
	}
	window := r.Modified.Sub(r.Created)
	if window <= 0 {
		window = time.Hour
	}
	edit := r.OriginalSize / 100
	if edit < 1 {
		edit = 1
	}
	if edit > 64<<10 {
		edit = 64 << 10
	}
	mods := r.Mods
	if mods > 8 {
		mods = 8 // bound per-file event count; the tail adds little
	}
	for m := 1; m <= mods; m++ {
		off := (r.OriginalSize / int64(mods+1)) * int64(m)
		if off >= r.OriginalSize {
			off = r.OriginalSize - 1
		}
		update += edit
		editLen := edit
		s.Clock.Post(at+window*time.Duration(m)/time.Duration(mods+1), func() {
			f, ok := s.FS.File(name)
			if !ok || f.Size() == 0 {
				return
			}
			end := off + editLen
			if end > f.Size() {
				end = f.Size()
			}
			if err := s.FS.Write(name, f.Blob().Mutate(off),
				[]chunker.Range{{Off: off, Len: end - off}}); err != nil {
				panic(fmt.Sprintf("core: replay edit: %v", err))
			}
		})
	}
	return update
}

// TraceReplay replays a trace through the real sync engine under one
// service profile: every record is created at its trace timestamp, and
// records modified during the collection window receive their
// modification events (1 % of the file, capped at 64 KB, per edit)
// spread between creation and last-modification time. The replay runs
// a single account on the PC client from Minnesota.
func TraceReplay(n service.Name, recs []trace.Record, fullScaleFactor float64) ReplayResult {
	s := service.NewSetup(n, client.PC, service.Options{})
	var update int64
	for i, r := range recs {
		update += scheduleRecord(s, fmt.Sprintf("u/%s/f%06d", r.User, i), r, 0)
	}
	s.Clock.Run()

	traffic := s.Capture.TotalBytes()
	fullGB := float64(traffic) * fullScaleFactor / (1 << 30)
	return ReplayResult{
		Service:     n.String(),
		Files:       len(recs),
		UpdateBytes: update,
		Traffic:     traffic,
		TUE:         TUE(traffic, update),
		FullTraceGB: fullGB,
		CostUSD:     fullGB * s3DollarsPerGB,
	}
}

// TraceReplayAll replays the trace under the six PC clients and the
// reference design. Each service's replay is an independent simulation
// over the (read-only) record slice, so the seven replays run on the
// worker pool; content identity comes from the records' ContentIDs, so
// no seeds are drawn and the results are order-independent.
func TraceReplayAll(recs []trace.Record, fullScaleFactor float64) []ReplayResult {
	services := append(service.All(), service.Reference)
	return parallel.Map(services, func(_ int, n service.Name) ReplayResult {
		return TraceReplay(n, recs, fullScaleFactor)
	})
}

// RenderReplay formats the replay comparison.
func RenderReplay(results []ReplayResult) string {
	tb := metrics.Table{Header: []string{"Service", "Files", "Updates", "Sync traffic", "TUE", "Full-trace est.", "S3 cost"}}
	for _, r := range results {
		tb.AddRow(r.Service,
			fmt.Sprintf("%d", r.Files),
			metrics.HumanBytes(r.UpdateBytes),
			metrics.HumanBytes(r.Traffic),
			fmtTUE(r.TUE),
			fmt.Sprintf("%.1f GB", r.FullTraceGB),
			fmt.Sprintf("$%.2f", r.CostUSD))
	}
	return "Trace replay: the § 3.1 workload under each service (PC client, MN)\n" +
		tb.String() +
		"(full-trace estimate scales traffic to the 222,632-file population;\n" +
		" cost prices it at the paper's $0.05/GB Amazon S3 rate)\n"
}
