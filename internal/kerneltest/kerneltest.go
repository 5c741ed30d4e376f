// Package kerneltest holds what the kernel packages' gate tests share.
// The race detector drops sync.Pool items, so pooled paths allocate
// more under it, and it slows every memory access, so speed ratios
// between kernels shrink: those tests skip when Race is set.
package kerneltest

import "time"

// SpeedRatio times fast and ref alternately for rounds rounds each and
// returns ref's fastest round over fast's. Timing both in one process
// and keeping each one's fastest round cancels the machine's speed and
// most of its load.
func SpeedRatio(fast, ref func(), rounds int) float64 {
	fastMin, refMin := time.Duration(1<<63-1), time.Duration(1<<63-1)
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		fast()
		t1 := time.Now()
		ref()
		fastMin = min(fastMin, t1.Sub(t0))
		refMin = min(refMin, time.Since(t1))
	}
	return float64(refMin) / float64(fastMin)
}
