package protocol

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"cloudsync/internal/kerneltest"
)

func sampleBundle(n int) *Bundle {
	b := &Bundle{Entries: make([]BundleEntry, n)}
	for i := range b.Entries {
		payload := bytes.Repeat([]byte{byte(i)}, 64+i)
		b.Entries[i] = BundleEntry{
			Name:     fmt.Sprintf("dir/file-%03d.txt", i),
			Size:     int64(len(payload)),
			FileHash: Sum(payload),
			Payload:  payload,
		}
	}
	return b
}

func TestSizeBundleEntryMatchesEncoding(t *testing.T) {
	b := sampleBundle(5)
	want := len(Encode(b))
	got := frameHeader + 4 // frame + entry count
	for _, en := range b.Entries {
		got += SizeBundleEntry(en.Name, len(en.Payload))
	}
	if got != want {
		t.Fatalf("sum of SizeBundleEntry = %d, encoded frame = %d", got, want)
	}
}

func TestBundleCorruptEntryCount(t *testing.T) {
	enc := Encode(sampleBundle(2))
	// Body starts with the u32 entry count; inflate it far past what the
	// body could hold.
	binary.LittleEndian.PutUint32(enc[frameHeader:], 1<<30)
	if _, err := Decode(enc); err == nil {
		t.Fatal("inflated bundle entry count not rejected")
	}
}

func TestBundleCorruptPayloadLength(t *testing.T) {
	enc := Encode(&Bundle{Entries: []BundleEntry{{Name: "a", Size: 1, Payload: []byte{1}}}})
	// Entry layout after the count: nameLen(4) name(1) size(8) hash(16)
	// payloadLen(4). Corrupt the payload length.
	off := frameHeader + 4 + 4 + 1 + 8 + 16
	binary.LittleEndian.PutUint32(enc[off:], 1<<20)
	if _, err := Decode(enc); err == nil {
		t.Fatal("inflated bundle payload length not rejected")
	}
}

func TestBundleReplyCorruptResultCount(t *testing.T) {
	enc := Encode(&BundleReply{Results: []BundleResult{{OK: true}}})
	binary.LittleEndian.PutUint32(enc[frameHeader:], 1<<30)
	if _, err := Decode(enc); err == nil {
		t.Fatal("inflated bundle result count not rejected")
	}
}

func TestAppendDataHeaderMatchesEncode(t *testing.T) {
	payload := []byte("some data piece")
	m := &Data{FileID: 42, Offset: 4096, Payload: payload}
	want := Encode(m)
	hdr := AppendDataHeader(nil, m.FileID, m.Offset, len(payload))
	got := append(append([]byte{}, hdr...), payload...)
	if !bytes.Equal(got, want) {
		t.Fatalf("AppendDataHeader + payload:\n got %x\nwant %x", got, want)
	}
}

// TestDecodeAllocs pins Decode's allocations: the message, its entry
// slice, and one string or payload copy per field that outlives the
// frame — 2 + 2 per bundle entry, 2 + 1 per listing entry. The cursor
// itself is pooled; the race detector drops pooled items, so the test
// skips under -race.
func TestDecodeAllocs(t *testing.T) {
	if kerneltest.Race {
		t.Skip("the race detector drops pooled items")
	}
	l := &Listing{Epoch: 3, Seq: 9}
	for i := range 5 {
		l.Entries = append(l.Entries, ListEntry{FileID: uint64(i), Name: fmt.Sprintf("dir/file-%03d.txt", i), Size: 100})
	}
	for _, tc := range []struct {
		m      Message
		allocs float64
	}{
		{sampleBundle(5), 12},
		{l, 7},
	} {
		enc := Encode(tc.m)
		if got := testing.AllocsPerRun(100, func() { Decode(enc) }); got != tc.allocs {
			t.Errorf("Decode of a %v: %.0f allocations, want %.0f", tc.m.Type(), got, tc.allocs)
		}
	}
}

// BenchmarkAppendEncode proves the live path's claim: encoding into a
// buffer with capacity performs zero allocations per message.
func BenchmarkAppendEncode(b *testing.B) {
	m := &IndexUpdate{FileID: 7, Name: "docs/report.txt", Size: 1 << 16,
		FileHash: Sum([]byte("x"))}
	buf := make([]byte, 0, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendEncode(buf[:0], m)
	}
	if testing.AllocsPerRun(100, func() { buf = AppendEncode(buf[:0], m) }) != 0 {
		b.Fatal("AppendEncode allocated with sufficient capacity")
	}
}

// BenchmarkAppendDataHeader: the vectored-write header costs nothing
// per piece once the scratch buffer exists.
func BenchmarkAppendDataHeader(b *testing.B) {
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = AppendDataHeader(buf[:0], 7, int64(i)<<16, 1<<16)
	}
	if testing.AllocsPerRun(100, func() { buf = AppendDataHeader(buf[:0], 7, 0, 1) }) != 0 {
		b.Fatal("AppendDataHeader allocated with sufficient capacity")
	}
}

// BenchmarkReadMessageBuf measures the steady-state read path: the
// returned buffer feeds the next call, so the frame read itself is
// allocation-free and only the decoded message escapes.
func BenchmarkReadMessageBuf(b *testing.B) {
	frame := Encode(&Commit{FileID: 7, Version: 3})
	r := bytes.NewReader(nil)
	buf := make([]byte, 0, 4096)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Reset(frame)
		var err error
		_, buf, err = ReadMessageBuf(r, buf)
		if err != nil {
			b.Fatal(err)
		}
	}
}
