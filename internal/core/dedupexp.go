package core

import (
	"fmt"

	"cloudsync/internal/chunker"
	"cloudsync/internal/client"
	"cloudsync/internal/content"
	"cloudsync/internal/parallel"
	"cloudsync/internal/service"
	"cloudsync/internal/trace"
)

// smallTraffic is Algorithm 1's "Tr2 is small (≈ tens of KBs)"
// threshold, with headroom for per-sync control chatter.
const smallTraffic = 200 << 10

// maxProbeSize bounds Algorithm 1's search; a service that has not
// deduplicated a self-duplicated file by 16 MB blocks is treated as
// having no block-level deduplication.
const maxProbeSize = 16 << 20

// uploadProbe uploads f1 (b1 random bytes) and then f2 = f1 + f1 on a
// fresh setup, returning the sync traffic of each upload.
func uploadProbe(n service.Name, a client.AccessMethod, b1, seed int64) (tr1, tr2 int64) {
	s := service.NewSetup(n, a, service.Options{})
	// Literal content: Algorithm 1 compares a file against its own
	// self-concatenation, so both must fingerprint through the same
	// (real MD5) path.
	f1 := content.FromBytes(content.Random(b1, seed).Bytes())
	tr1 = Measure(s, func() { must(s.FS.Create("probe/f1", f1)) }).Traffic()

	f2 := f1.Concat(f1)
	tr2 = Measure(s, func() { must(s.FS.Create("probe/f2", f2)) }).Traffic()
	return tr1, tr2
}

// Algorithm1 is the paper's Iterative Self Duplication Algorithm: infer
// a service's deduplication block size by uploading a file and its
// self-concatenation, growing the guess until the second upload
// becomes nearly free. It reports the inferred block size and whether
// block-level deduplication was detected at all.
func Algorithm1(n service.Name, a client.AccessMethod) (blockSize int64, found bool) {
	return algorithm1(n, a, reserveSeeds(algorithm1Seeds))
}

// algorithm1Seeds is the seed reservation one algorithm1 run needs:
// one uploadProbe content seed per iteration of its bounded search.
const algorithm1Seeds = 16

// algorithm1 is Algorithm1 drawing content seeds from a pre-reserved
// sequence, so parallel callers (Experiment5) stay deterministic.
func algorithm1(n service.Name, a client.AccessMethod, seeds *seedSeq) (blockSize int64, found bool) {
	b1 := int64(1 << 20) // initial guess
	lower := int64(0)
	upper := int64(0) // 0 = +∞
	for iter := 0; iter < algorithm1Seeds && b1 <= maxProbeSize; iter++ {
		tr1, tr2 := uploadProbe(n, a, b1, seeds.Next())
		switch {
		case tr2 < tr1/4 && tr2 < smallTraffic:
			// Step 3's success case: f2 cost almost nothing, so every
			// block of f2 was already stored — B1 is the granularity.
			return b1, true
		case tr2 < 2*b1 && tr2 >= smallTraffic:
			// Partial savings: the guess exceeds the true block size.
			upper = b1
			b1 = (lower + upper) / 2
		default:
			// No savings: the guess is below (or misaligned with) the
			// block size.
			lower = b1
			if upper == 0 {
				b1 *= 2
			} else {
				b1 = (lower + upper) / 2
			}
		}
		if upper != 0 && upper-lower < 64<<10 {
			break
		}
	}
	return 0, false
}

// duplicateFileProbe uploads a file and then an identically-sized,
// identical-content file under a different name — by the uploading
// user or by a second user sharing the cloud — and reports whether the
// second upload's traffic indicates full-file deduplication.
func duplicateFileProbe(n service.Name, a client.AccessMethod, crossUser bool, seed int64) bool {
	s := service.NewSetup(n, a, service.Options{User: "alice"})
	blob := content.Random(1<<20, seed)
	if err := s.FS.Create("orig.bin", blob); err != nil {
		panic(err)
	}
	s.Clock.Run()

	uploader := s
	if crossUser {
		uploader = service.NewSetup(n, a, service.Options{
			User:    "bob",
			Cloud:   s.Cloud,
			Clock:   s.Clock,
			Capture: s.Capture,
		})
	}
	traffic := Measure(s, func() { must(uploader.FS.Create("copy.bin", content.Random(1<<20, blob.Seed()))) }).Traffic()
	return traffic < smallTraffic
}

// DedupInference is one Table 9 row.
type DedupInference struct {
	Service service.Name
	// SameUser and CrossUser describe the granularity as the paper's
	// Table 9 does: "No", "Full file", or "<n> MB".
	SameUser  string
	CrossUser string
}

// Experiment5 reproduces Table 9: infer every service's deduplication
// granularity for the same-user and cross-user cases via Algorithm 1
// and the duplicate-file probe. Web access is omitted, as in the
// paper, because web-based sync does not deduplicate.
func Experiment5() []DedupInference {
	type task struct {
		n     service.Name
		seeds *seedSeq
	}
	var tasks []task
	for _, n := range service.All() {
		// Per service: one algorithm1 run plus the two duplicate-file
		// probes, each with its own content seed.
		tasks = append(tasks, task{n: n, seeds: reserveSeeds(algorithm1Seeds + 2)})
	}
	return parallel.Map(tasks, func(_ int, t task) DedupInference {
		row := DedupInference{Service: t.n, SameUser: "No", CrossUser: "No"}
		// Draw the probe seeds up front so every branch consumes the same
		// sequence positions regardless of which probes actually run.
		algSeeds := reserveFrom(t.seeds, algorithm1Seeds)
		sameSeed := t.seeds.Next()
		crossSeed := t.seeds.Next()
		if bs, ok := algorithm1(t.n, client.PC, algSeeds); ok {
			row.SameUser = fmt.Sprintf("%d MB", bs>>20)
		} else if duplicateFileProbe(t.n, client.PC, false, sameSeed) {
			row.SameUser = "Full file"
		}
		if duplicateFileProbe(t.n, client.PC, true, crossSeed) {
			// Cross-user hits at least at full-file level; check for
			// block granularity only if same-user found one.
			row.CrossUser = "Full file"
		}
		return row
	})
}

// DedupRatioPoint is one Fig. 5 sample.
type DedupRatioPoint struct {
	// BlockSize in bytes; 0 denotes full-file granularity.
	BlockSize int
	Ratio     float64
}

// Fig5 computes the trace-driven cross-user deduplication ratio at
// full-file granularity and at each of the trace's block granularities
// (128 KB – 16 MB).
func Fig5(recs []trace.Record) []DedupRatioPoint {
	out := []DedupRatioPoint{{BlockSize: 0, Ratio: trace.DedupRatio(recs, 0)}}
	for _, bs := range chunker.StandardBlockSizes {
		out = append(out, DedupRatioPoint{BlockSize: bs, Ratio: trace.DedupRatio(recs, bs)})
	}
	return out
}
