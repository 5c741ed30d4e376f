package core

import (
	"fmt"
	"math"
	"time"

	"cloudsync/internal/metrics"
	"cloudsync/internal/netem"
	"cloudsync/internal/parallel"
	"cloudsync/internal/wire"
)

// ReliabilityCell is one row of the upload-reliability ablation.
type ReliabilityCell struct {
	Strategy string
	// MTBF is the mean time between connection failures.
	MTBF time.Duration
	// Traffic is the total wire volume spent completing the upload,
	// including wasted partial attempts; Attempts counts connections
	// used; Duration is the completion time.
	Traffic  int64
	Attempts int
	Duration time.Duration
}

// xorshift is a tiny deterministic PRNG for failure arrival sampling
// (math/rand would also be deterministic, but this keeps the draw
// sequence frozen independent of Go releases).
type xorshift uint64

func (x *xorshift) next() uint64 {
	v := uint64(*x)
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = xorshift(v)
	return v
}

// expSample draws an exponential duration with the given mean.
func (x *xorshift) expSample(mean time.Duration) time.Duration {
	// Inverse CDF on a 53-bit uniform; clamp away from 0.
	u := float64(x.next()>>11)/float64(1<<53) + 1e-12
	d := -float64(mean) * ln(u)
	return time.Duration(d)
}

// ln aliases math.Log so the inverse-CDF sampling above reads clearly.
func ln(x float64) float64 { return math.Log(x) }

// ReliabilityAblation quantifies the cost of non-resumable uploads on
// flaky links — the failure mode behind the paper's warnings about
// mobile/weak-network cloud storage use. A fileSize upload runs over
// the link; the connection dies with exponential inter-failure times
// of the given mean. The restart strategy re-sends from byte zero
// after every failure (web-style single-PUT uploads); the resumable
// strategy (chunked upload, Dropbox-style 4 MB pieces) loses at most
// the in-flight chunk.
func ReliabilityAblation(fileSize int64, link netem.Link, chunk int64, mtbfs []time.Duration) []ReliabilityCell {
	if fileSize <= 0 || chunk <= 0 {
		panic(fmt.Sprintf("core: ReliabilityAblation(%d, %d)", fileSize, chunk))
	}
	params := wire.DefaultParams()
	wireBytes := func(app int64) int64 {
		w, ack := params.FrameSize(int(app))
		return int64(w + ack)
	}
	handshake := int64(6000) // TCP+TLS establishment, both directions
	handshakeTime := time.Duration(wire.HandshakeRTTs) * link.RTT

	type task struct {
		mtbf     time.Duration
		strategy string
	}
	var tasks []task
	for _, mtbf := range mtbfs {
		for _, strategy := range []string{"restart from zero", "resumable chunks"} {
			tasks = append(tasks, task{mtbf: mtbf, strategy: strategy})
		}
	}
	// Every cell seeds its own PRNG from its MTBF, so the cells are
	// fully independent and run on the worker pool.
	return parallel.Map(tasks, func(_ int, t task) ReliabilityCell {
		rng := xorshift(0xC10D + uint64(t.mtbf))
		var traffic int64
		var elapsed time.Duration
		attempts := 0
		var committed int64 // bytes durably uploaded

		for committed < fileSize && attempts < 10_000 {
			attempts++
			traffic += handshake
			elapsed += handshakeTime
			ttf := rng.expSample(t.mtbf)

			if t.strategy == "restart from zero" {
				committed = 0
			}
			remaining := fileSize - committed
			sendTime := link.UpTime(int(wireBytes(remaining)))
			if ttf >= sendTime {
				// Attempt completes.
				traffic += wireBytes(remaining)
				elapsed += sendTime
				committed = fileSize
				continue
			}
			// Failure mid-transfer.
			sentApp := int64(float64(remaining) * float64(ttf) / float64(sendTime))
			traffic += wireBytes(sentApp)
			elapsed += ttf
			if t.strategy == "resumable chunks" {
				// Whole chunks that finished before the failure are
				// durable.
				committed += (sentApp / chunk) * chunk
			}
		}
		return ReliabilityCell{
			Strategy: t.strategy, MTBF: t.mtbf,
			Traffic: traffic, Attempts: attempts, Duration: elapsed,
		}
	})
}

// RenderReliability formats the ablation.
func RenderReliability(cells []ReliabilityCell, fileSize int64) string {
	tb := metrics.Table{Header: []string{"MTBF", "Strategy", "Traffic", "TUE", "Attempts", "Time"}}
	for _, c := range cells {
		tb.AddRow(c.MTBF.String(), c.Strategy,
			metrics.HumanBytes(c.Traffic),
			fmtTUE(TUE(c.Traffic, fileSize)),
			fmt.Sprintf("%d", c.Attempts),
			c.Duration.Round(time.Second).String())
	}
	return fmt.Sprintf("Upload reliability ablation: %s file on a flaky link\n%s",
		metrics.HumanBytes(fileSize), tb.String())
}
