package content

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindRandom: "random", KindText: "text", KindZeros: "zeros", KindBytes: "bytes",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind %d = %q, want %q", k, got, want)
		}
	}
	if Kind(42).String() == "" {
		t.Error("unknown kind should render")
	}
}

func TestDeterministicContent(t *testing.T) {
	for _, k := range []Kind{KindRandom, KindText} {
		var mk func(int64, int64) *Blob
		if k == KindRandom {
			mk = Random
		} else {
			mk = Text
		}
		a := mk(10000, 7).Bytes()
		b := mk(10000, 7).Bytes()
		if !bytes.Equal(a, b) {
			t.Fatalf("%v: same (size,seed) gave different content", k)
		}
		c := mk(10000, 8).Bytes()
		if bytes.Equal(a, c) {
			t.Fatalf("%v: different seeds gave identical content", k)
		}
	}
}

func TestPrefixStability(t *testing.T) {
	for _, k := range []Kind{KindRandom, KindText, KindZeros} {
		var short, long *Blob
		switch k {
		case KindRandom:
			short, long = Random(1000, 3), Random(5000, 3)
		case KindText:
			short, long = Text(1000, 3), Text(5000, 3)
		case KindZeros:
			short, long = Zeros(1000), Zeros(5000)
		}
		if !bytes.Equal(short.Bytes(), long.Bytes()[:1000]) {
			t.Fatalf("%v: longer blob is not an extension of shorter", k)
		}
	}
}

func TestResizeGrowsConsistently(t *testing.T) {
	b := Random(100, 9)
	big := b.Resize(300)
	if big.Size() != 300 || big.Seed() != 9 || big.Kind() != KindRandom {
		t.Fatalf("Resize result = %v", big)
	}
	if !bytes.Equal(b.Bytes(), big.Bytes()[:100]) {
		t.Fatal("Resize broke prefix property")
	}
}

func TestResizeLiteral(t *testing.T) {
	b := FromBytes([]byte("hello world"))
	small := b.Resize(5)
	if string(small.Bytes()) != "hello" {
		t.Fatalf("shrunk literal = %q", small.Bytes())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("growing literal blob did not panic")
		}
	}()
	b.Resize(100)
}

func TestNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative size did not panic")
		}
	}()
	Random(-1, 0)
}

func TestZeros(t *testing.T) {
	b := Zeros(1000)
	for i, v := range b.Bytes() {
		if v != 0 {
			t.Fatalf("byte %d = %d", i, v)
		}
	}
}

func TestEmptyBlob(t *testing.T) {
	for _, b := range []*Blob{Random(0, 1), Text(0, 1), Zeros(0), FromBytes(nil)} {
		if len(b.Bytes()) != 0 {
			t.Fatalf("%v: empty blob produced bytes", b)
		}
		n, err := b.Reader().Read(make([]byte, 10))
		if n != 0 || err != io.EOF {
			t.Fatalf("%v: empty reader = (%d, %v)", b, n, err)
		}
	}
}

func TestReaderMatchesBytes(t *testing.T) {
	b := Text(50000, 11)
	var buf bytes.Buffer
	// Read in odd-sized chunks to exercise generator state handling.
	r := b.Reader()
	tmp := make([]byte, 1237)
	for {
		n, err := r.Read(tmp)
		buf.Write(tmp[:n])
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(buf.Bytes(), b.Bytes()) {
		t.Fatal("chunked reader output differs from Bytes()")
	}
}

func TestConcat(t *testing.T) {
	a := FromBytes([]byte("foo"))
	b := FromBytes([]byte("bar"))
	c := a.Concat(b)
	if string(c.Bytes()) != "foobar" {
		t.Fatalf("Concat = %q", c.Bytes())
	}
	// Self-duplication — the operation Algorithm 1 relies on.
	f1 := Random(4096, 5)
	f2 := f1.Concat(f1)
	if f2.Size() != 8192 {
		t.Fatalf("self-concat size = %d", f2.Size())
	}
	if !bytes.Equal(f2.Bytes()[:4096], f2.Bytes()[4096:]) {
		t.Fatal("self-concat halves differ")
	}
}

func TestConcatOverLimitPanics(t *testing.T) {
	a := Random(MaterializeLimit, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("oversized Concat did not panic")
		}
	}()
	a.Concat(Random(1, 2))
}

func TestBytesOverLimitPanics(t *testing.T) {
	b := Random(MaterializeLimit+1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("oversized Bytes did not panic")
		}
	}()
	b.Bytes()
}

func TestIdentity(t *testing.T) {
	if Random(100, 1).Identity() != Random(100, 1).Identity() {
		t.Fatal("identical descriptors have different identities")
	}
	if Random(100, 1).Identity() == Random(100, 2).Identity() {
		t.Fatal("different seeds share identity")
	}
	if Random(100, 1).Identity() == Random(101, 1).Identity() {
		t.Fatal("different sizes share identity")
	}
	if Random(100, 1).Identity() == Text(100, 1).Identity() {
		t.Fatal("different kinds share identity")
	}
	a := FromBytes([]byte("same"))
	b := FromBytes([]byte("same"))
	if !a.Equal(b) {
		t.Fatal("equal literal blobs not Equal")
	}
	if a.Equal(FromBytes([]byte("diff"))) {
		t.Fatal("different literals Equal")
	}
	// The form is pinned: the cloud fingerprints a descriptor blob by
	// hashing it, so any change would move dedup and TUE.
	for _, b := range []*Blob{Random(100, -7), Text(1<<20, 1<<40), Zeros(3), a} {
		want := fmt.Sprintf("gen:%d:%d:%d", b.kind, b.seed, b.size)
		if b.kind == KindBytes {
			want = fmt.Sprintf("md5:%x", b.MD5())
		}
		if got := b.Identity(); got != want {
			t.Errorf("Identity %q, want %q", got, want)
		}
	}
}

func TestStringer(t *testing.T) {
	if s := Random(10, 1).String(); !strings.Contains(s, "random") {
		t.Fatalf("String() = %q", s)
	}
}

func flateRatio(t *testing.T, data []byte) float64 {
	t.Helper()
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.BestCompression)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	w.Close()
	return float64(buf.Len()) / float64(len(data))
}

func TestRandomIsIncompressible(t *testing.T) {
	r := flateRatio(t, Random(1<<20, 42).Bytes())
	if r < 0.99 {
		t.Fatalf("random content compressed to %.3f, want ≈ 1.0", r)
	}
}

func TestTextIsCompressibleLikeDocuments(t *testing.T) {
	// The paper's 10 MB random-word file compressed to ~45 % with
	// best-effort compression; our generator should land in that region.
	r := flateRatio(t, Text(1<<20, 42).Bytes())
	if r < 0.30 || r > 0.60 {
		t.Fatalf("text content compressed to %.3f, want 0.30–0.60", r)
	}
}

func TestZerosAreHighlyCompressible(t *testing.T) {
	r := flateRatio(t, Zeros(1<<20).Bytes())
	if r > 0.01 {
		t.Fatalf("zeros compressed to %.4f, want < 0.01", r)
	}
}

// Property: for any size and seed, Bytes() length equals Size() and
// repeated materialization is stable.
func TestPropertyBytesLength(t *testing.T) {
	f := func(size uint16, seed int64, kindSel uint8) bool {
		var b *Blob
		switch kindSel % 3 {
		case 0:
			b = Random(int64(size), seed)
		case 1:
			b = Text(int64(size), seed)
		default:
			b = Zeros(int64(size))
		}
		data := b.Bytes()
		return int64(len(data)) == b.Size() && bytes.Equal(data, b.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: prefix stability holds for arbitrary size pairs.
func TestPropertyPrefix(t *testing.T) {
	f := func(a, b uint16, seed int64) bool {
		small, big := int64(a), int64(b)
		if small > big {
			small, big = big, small
		}
		x := Random(small, seed)
		y := Random(big, seed)
		return bytes.Equal(x.Bytes(), y.Bytes()[:small])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRandomGeneration(b *testing.B) {
	b.SetBytes(1 << 20)
	for i := 0; i < b.N; i++ {
		blob := Random(1<<20, int64(i))
		io.Copy(io.Discard, blob.Reader())
	}
}

func BenchmarkTextGeneration(b *testing.B) {
	b.SetBytes(1 << 20)
	for i := 0; i < b.N; i++ {
		blob := Text(1<<20, int64(i))
		io.Copy(io.Discard, blob.Reader())
	}
}
