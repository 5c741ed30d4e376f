package wal

import (
	"fmt"
	"testing"

	"cloudsync/internal/obs"
)

// BenchmarkStoreCommit times one durable commit (Append + Sync) of a
// record of each size on a store that compacts, with an empty state, at
// 64 MiB of log, the sync server's default. zero_B/op counts the zeros
// the log writes ahead of its last frame: "1MiB+100B" alternates a
// large commit with a small one, which must write none, since the next
// large commit would only overwrite them.
func BenchmarkStoreCommit(b *testing.B) {
	for _, sizes := range [][]int{{9 << 10}, {1 << 20}, {4 << 20}, {1 << 20, 100}} {
		name := ""
		for i, n := range sizes {
			if i > 0 {
				name += "+"
			}
			switch {
			case n >= 1<<20:
				name += fmt.Sprintf("%dMiB", n>>20)
			case n >= 1<<10:
				name += fmt.Sprintf("%dKiB", n>>10)
			default:
				name += fmt.Sprintf("%dB", n)
			}
		}
		b.Run(name, func(b *testing.B) {
			st, err := Open(b.TempDir(), nil)
			if err != nil {
				b.Fatal(err)
			}
			defer st.Close()
			m := &Metrics{ZeroBytes: obs.NewRegistry().Counter("zero_bytes", "")}
			st.SetMetrics(m)
			recs := make([][]byte, len(sizes))
			total := 0
			for i, n := range sizes {
				recs[i] = make([]byte, n)
				for j := range recs[i] {
					recs[i][j] = byte(j * 7)
				}
				total += n
			}
			b.SetBytes(int64(total))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, rec := range recs {
					st.Append(rec)
					if err := st.Sync(); err != nil {
						b.Fatal(err)
					}
				}
				if st.LogBytes() > 64<<20 {
					if err := st.Compact(nil); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(m.ZeroBytes.Value())/float64(b.N), "zero_B/op")
		})
	}
}
