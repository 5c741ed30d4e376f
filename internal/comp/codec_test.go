package comp

import (
	"bytes"
	"compress/flate"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"cloudsync/internal/content"
	"cloudsync/internal/kerneltest"
)

var codecLevels = []Level{Low, Moderate, High}

// freshCompress is Compress without the pool: a new writer per call.
func freshCompress(t testing.TB, data []byte, l Level) []byte {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flateLevel(l))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCompressBound: incompressible input is what comes closest to the
// bound, and at every level and size Compress stays within it.
func TestCompressBound(t *testing.T) {
	sizes := []int{0, 1, 100, flateBlock - 1, flateBlock, flateBlock + 1,
		65535, 65536, 3*flateBlock + 7, 1 << 20, 4 << 20}
	sizes = append(sizes, rand.New(rand.NewSource(1)).Intn(4<<20))
	data := content.Random(4<<20, 1).Bytes()
	for _, l := range codecLevels {
		for _, n := range sizes {
			got := int64(len(Compress(data[:n], l)))
			if bound := CompressBound(int64(n), l); got > bound {
				t.Errorf("%v, %d random bytes: compressed to %d, past the bound %d", l, n, got, bound)
			}
		}
	}
	if got := CompressBound(12345, None); got != 12345 {
		t.Errorf("CompressBound under None = %d, want the size itself", got)
	}
	if got := CompressBound(1<<63-1, Moderate); got < 1<<62 {
		t.Errorf("CompressBound of the largest size = %d: overflowed", got)
	}
}

// TestPooledCompressMatchesFresh: a pooled writer, reset and reused
// across levels and goroutines, emits exactly what a fresh one does.
func TestPooledCompressMatchesFresh(t *testing.T) {
	inputs := [][]byte{
		content.Text(100_000, 1).Bytes(),
		content.Random(70_000, 2).Bytes(),
		content.Text(5_000, 3).Bytes(),
		nil,
	}
	want := make(map[[2]int][]byte)
	for i, in := range inputs {
		for _, l := range codecLevels {
			want[[2]int{i, int(l)}] = freshCompress(t, in, l)
		}
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range 3 {
				for j := range inputs {
					i := (j + g + round) % len(inputs)
					l := codecLevels[(g+round+j)%len(codecLevels)]
					if got := Compress(inputs[i], l); !bytes.Equal(got, want[[2]int{i, int(l)}]) {
						t.Errorf("goroutine %d: input %d at %v differs from a fresh writer's output", g, i, l)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestDecompressSize(t *testing.T) {
	data := content.Text(200_000, 4).Bytes()
	packed := Compress(data, Moderate)
	size := int64(len(data))
	cases := []struct {
		name    string
		payload []byte
		l       Level
		size    int64
		want    error // nil: accepted; errAny: any other error
	}{
		{"exact size", packed, Moderate, size, nil},
		{"size-1", packed, Moderate, size - 1, ErrSizeMismatch},
		{"size+1", packed, Moderate, size + 1, ErrSizeMismatch},
		{"negative size", packed, Moderate, -1, ErrSizeMismatch},
		{"trailing frame", append(append([]byte(nil), packed...), Compress([]byte("more"), Moderate)...), Moderate, size, errAny},
		{"trailing garbage", append(append([]byte(nil), packed...), 0xde, 0xad), Moderate, size, errAny},
		{"truncated", packed[:len(packed)/2], Moderate, size, errAny},
		{"garbage", []byte("not flate data at all"), Moderate, 20, errAny},
		{"empty payload", nil, Moderate, 0, errAny},
		{"none exact", data, None, size, nil},
		{"none short", data, None, size + 1, ErrSizeMismatch},
		{"none long", data, None, size - 1, ErrSizeMismatch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := DecompressSize(tc.payload, tc.l, tc.size)
			switch {
			case tc.want == nil:
				if err != nil || !bytes.Equal(out, data) {
					t.Fatalf("got %d bytes, %v; want the content back", len(out), err)
				}
			case tc.want == errAny:
				if err == nil || errors.Is(err, ErrSizeMismatch) {
					t.Fatalf("err = %v, want a decode error", err)
				}
			default:
				if !errors.Is(err, tc.want) {
					t.Fatalf("err = %v, want %v", err, tc.want)
				}
			}
		})
	}
}

var errAny = errors.New("any decode error")

// TestDecompressSizeRefusesBeforeAllocating: a size no payload of that
// length can inflate to is refused before the output buffer exists.
func TestDecompressSizeRefusesBeforeAllocating(t *testing.T) {
	payload := Compress(content.Text(1000, 5).Bytes(), Moderate)[:100]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecompressSize(payload, Moderate, 1<<30)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrSizeMismatch) {
		t.Fatalf("1 GiB claim on a 100 B stream: err = %v, want ErrSizeMismatch", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("refusal allocated %d bytes", got)
	}
	// The densest stream there is, 1032:1, still inflates.
	zeros := make([]byte, 8<<20)
	packed := Compress(zeros, High)
	if got := int64(len(zeros)); got > maxInflation*int64(len(packed)) {
		t.Fatalf("%d zeros packed into %d bytes: denser than maxInflation", got, len(packed))
	}
	if _, err := DecompressSize(packed, High, int64(len(zeros))); err != nil {
		t.Fatalf("8 MiB of zeros: %v", err)
	}
}

// TestAllocCeilings pins the codec's allocations per 1 MiB text, row
// names after their benchmarks; a count does not depend on the machine,
// so each ceiling is the count the benchmark reports (AllocsPerRun
// reads Compress at 14 of its 16). Compress draws its flate writer
// from a pool, so a Compress that builds one per call allocates about
// twice as much; the race detector drops pooled items, so that row
// skips under -race.
func TestAllocCeilings(t *testing.T) {
	data := content.Text(1<<20, 1).Bytes()
	packed := Compress(data, Moderate)
	for _, tc := range []struct {
		name    string
		ceiling float64
		pooled  bool
		run     func()
	}{
		{"Compress1MBText", 16, true, func() { Compress(data, Moderate) }},
		{"Decompress1MBText", 140, false, func() {
			if _, err := DecompressSize(packed, Moderate, int64(len(data))); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.pooled && kerneltest.Race {
				t.Skip("the race detector drops pooled items")
			}
			if allocs := testing.AllocsPerRun(3, tc.run); allocs > tc.ceiling {
				t.Errorf("%.0f allocations per call, ceiling %.0f", allocs, tc.ceiling)
			}
		})
	}
}

func BenchmarkCompress1MBText(b *testing.B) {
	data := content.Text(1<<20, 1).Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		Compress(data, Moderate)
	}
}

func BenchmarkDecompress1MBText(b *testing.B) {
	data := content.Text(1<<20, 1).Bytes()
	packed := Compress(data, Moderate)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := DecompressSize(packed, Moderate, int64(len(data))); err != nil {
			b.Fatal(err)
		}
	}
}
