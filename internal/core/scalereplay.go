package core

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"cloudsync/internal/client"
	"cloudsync/internal/cloud"
	"cloudsync/internal/metrics"
	"cloudsync/internal/parallel"
	"cloudsync/internal/service"
	"cloudsync/internal/trace"
)

// The scale replay answers the capacity question the single-account
// TraceReplay cannot: what does replaying the trace cost at N× the user
// population, and does the simulator's TUE stay exact as the replay
// fans out? Every trace user becomes an independent account (its own
// simclock, folder, client, and capture) replayed as one unit on the
// worker pool; all accounts of one service share one sharded cloud.
// A multiplier of N clones each user population N times with a
// deterministic content-seed offset per clone, so clones are genuinely
// distinct users whose workloads are byte-for-byte equivalent — which
// is what makes per-service TUE provably identical at every N and
// worker count, and any drift a bug.

// cloneContentStride separates the content-identity space of each
// cloned population. Trace ContentIDs are small sequential integers,
// so offsetting by a large stride can never collide.
const cloneContentStride = int64(1) << 40

// ScaleServiceResult aggregates one service's scale replay.
type ScaleServiceResult struct {
	Service string
	// Accounts is the number of user accounts replayed (trace users ×
	// multiplier); Files counts files created across all of them.
	Accounts int
	Files    int
	// UpdateBytes and Traffic sum over all accounts; TUE is their ratio.
	UpdateBytes int64
	Traffic     int64
	TUE         float64
}

// ScaleResult is one scale replay run.
type ScaleResult struct {
	Multiplier int
	Accounts   int
	Files      int
	Services   []ScaleServiceResult
	// Wall is the replay's wall-clock time (scheduling + simulation of
	// every account, excluding trace generation).
	Wall time.Duration
	// AllocBytes and AllocObjects are the replay's heap allocation
	// totals (runtime.MemStats deltas).
	AllocBytes   uint64
	AllocObjects uint64
	// PeakRSSBytes is the process's high-water resident set size
	// (Linux VmHWM) after the replay; 0 when the platform doesn't
	// expose it. It is a process-lifetime high-water mark, not a
	// per-run delta.
	PeakRSSBytes int64
}

// userPartition is one trace user's records: their global record
// indices, and the file names those indices give ("f%06d"), made once
// for every service and clone that replays the user.
type userPartition struct {
	user    string
	service string
	idx     []int
	names   []string
}

// partitionByUser groups records by user in first-appearance order.
// The generator emits each user's records contiguously, but the
// grouping does not rely on that.
func partitionByUser(recs []trace.Record) []userPartition {
	order := make(map[string]int)
	var parts []userPartition
	for i, r := range recs {
		p, ok := order[r.User]
		if !ok {
			p = len(parts)
			order[r.User] = p
			parts = append(parts, userPartition{user: r.User, service: r.Service})
		}
		parts[p].idx = append(parts[p].idx, i)
		parts[p].names = append(parts[p].names, fmt.Sprintf("f%06d", i))
	}
	return parts
}

// scaleServices returns the replayed service set: the six PC clients
// plus the reference design.
func scaleServices() []service.Name {
	return append(service.All(), service.Reference)
}

func scaleCloudConfig(n service.Name) cloud.Config {
	if n == service.Reference {
		return service.ReferenceCloudConfig()
	}
	return service.CloudConfig(n)
}

// replayAccount replays one user partition's records through the
// account's fresh setup s.
func replayAccount(s *service.Setup, recs []trace.Record, p userPartition, idOffset int64) (traffic, update int64) {
	for k, i := range p.idx {
		update += scheduleRecord(s, p.names[k], recs[i], idOffset)
	}
	s.Clock.Run()
	return s.Capture.TotalBytes(), update
}

// ScaleReplay replays the trace at multiplier× the user population
// under every service. Each (service, account) cell is an independent
// simulation handed its inputs up front — content seeds derive from
// record ContentIDs plus the clone's fixed offset, so no global seeds
// are drawn at run time — and the cells fan out on internal/parallel:
// the result is byte-identical at every worker count.
//
// Services without cross-user deduplication share one sharded
// cloud.Cloud per service across all accounts (per-user file tables
// and dedup scopes never interact, so interleaving cannot change any
// account's traffic). Services WITH cross-user deduplication (Ubuntu
// One, the reference design) give every account a private cloud:
// cross-user dedup makes one account's traffic depend on commit order
// across accounts, which would make the replay schedule-dependent.
// The scale mode trades that coupling away for exactness — at every
// multiplier, including 1, so the baseline is measured under the same
// semantics.
func ScaleReplay(recs []trace.Record, multiplier int) ScaleResult {
	if multiplier < 1 {
		panic(fmt.Sprintf("core: ScaleReplay multiplier %d < 1", multiplier))
	}
	parts := partitionByUser(recs)
	services := scaleServices()

	shared := make([]*cloud.Cloud, len(services))
	for i, n := range services {
		if ccfg := scaleCloudConfig(n); !ccfg.DedupCrossUser {
			shared[i] = cloud.New(ccfg)
		}
	}

	type unit struct{ svc, part, clone int }
	units := make([]unit, 0, len(services)*len(parts)*multiplier)
	for svc := range services {
		for part := range parts {
			for clone := 0; clone < multiplier; clone++ {
				units = append(units, unit{svc, part, clone})
			}
		}
	}

	type cell struct{ traffic, update int64 }
	cells := make([]cell, len(units))

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()

	parallel.ForEach(units, func(i int, u unit) {
		p := parts[u.part]
		user := p.user
		if u.clone > 0 {
			// Clone c of user u003 replays as account "u003+c".
			user = fmt.Sprintf("%s+%d", user, u.clone)
		}
		// A nil shared cloud gives the account a private one.
		s := service.NewSetup(services[u.svc], client.PC, service.Options{User: user, Cloud: shared[u.svc]})
		t, up := replayAccount(s, recs, p, int64(u.clone)*cloneContentStride)
		cells[i] = cell{traffic: t, update: up}
	})

	wall := time.Since(start)
	runtime.ReadMemStats(&after)

	res := ScaleResult{
		Multiplier:   multiplier,
		Accounts:     len(parts) * multiplier,
		Files:        len(recs) * multiplier,
		Wall:         wall,
		AllocBytes:   after.TotalAlloc - before.TotalAlloc,
		AllocObjects: after.Mallocs - before.Mallocs,
		PeakRSSBytes: readPeakRSS(),
	}
	for svc, n := range services {
		sr := ScaleServiceResult{
			Service:  n.String(),
			Accounts: res.Accounts,
			Files:    res.Files,
		}
		for i, u := range units {
			if u.svc == svc {
				sr.Traffic += cells[i].traffic
				sr.UpdateBytes += cells[i].update
			}
		}
		sr.TUE = TUE(sr.Traffic, sr.UpdateBytes)
		res.Services = append(res.Services, sr)
	}
	return res
}

// readPeakRSS reports the process's peak resident set size from
// /proc/self/status (VmHWM), or 0 where that interface doesn't exist.
func readPeakRSS() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}

// RenderScale formats a scale replay next to its 1× baseline,
// reporting per-service TUE stability: with cloned populations the
// TUEs must agree exactly, so any drift is a determinism bug, not
// noise.
func RenderScale(base, scaled ScaleResult) string {
	tb := metrics.Table{Header: []string{"Service", "TUE n=1",
		fmt.Sprintf("TUE n=%d", scaled.Multiplier), "Traffic", "Stable"}}
	stable := true
	for i, sr := range scaled.Services {
		b := base.Services[i]
		ok := sr.TUE == b.TUE
		stable = stable && ok
		mark := "yes"
		if !ok {
			mark = fmt.Sprintf("DRIFT %+.3g", sr.TUE-b.TUE)
		}
		tb.AddRow(sr.Service, fmtTUE(b.TUE), fmtTUE(sr.TUE),
			metrics.HumanBytes(sr.Traffic), mark)
	}
	verdict := "TUE stable across the population multiplier"
	if !stable {
		verdict = "TUE DRIFTED across the population multiplier"
	}
	out := fmt.Sprintf("Scale replay: %d accounts × %d services (trace × %d, %d workers)\n",
		scaled.Accounts, len(scaled.Services), scaled.Multiplier, parallel.Workers()) +
		tb.String() +
		fmt.Sprintf("%s\nwall %v   heap %s in %d objects",
			verdict, scaled.Wall.Round(time.Millisecond),
			metrics.HumanBytes(int64(scaled.AllocBytes)), scaled.AllocObjects)
	if scaled.PeakRSSBytes > 0 {
		out += fmt.Sprintf("   peak RSS %s", metrics.HumanBytes(scaled.PeakRSSBytes))
	}
	return out + "\n"
}
