package protocol

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

func allMessages() []Message {
	return []Message{
		&Hello{User: "alice", Device: "M1", Version: "1.0"},
		&Hello{User: "bob", Device: "M2", Version: "cloudsync/1"},
		&TraceCtx{TraceID: [16]byte{1, 2, 3, 4}, SpanID: 99},
		&IndexUpdate{
			FileID: 7, Name: "docs/report.txt", Size: 1 << 20,
			FileHash:  Sum([]byte("content")),
			BlockSize: 4 << 20,
			BlockHashes: []Fingerprint{
				Sum([]byte("b0")), Sum([]byte("b1")),
			},
		},
		&IndexReply{FileID: 7, DedupHit: false, NeedBlocks: []uint32{0, 1, 5}},
		&IndexReply{FileID: 8, DedupHit: true},
		&Data{FileID: 7, Offset: 4096, Payload: []byte("hello world")},
		&Commit{FileID: 7, Version: 3},
		&Ack{FileID: 7, Version: 3, OK: true},
		&Notify{FileID: 7, Version: 3, Name: "docs/report.txt"},
		&Delete{FileID: 9},
		&Bundle{Entries: []BundleEntry{
			{Name: "notes/a.txt", Size: 3, FileHash: Sum([]byte("abc")), Payload: []byte("abc")},
			{Name: "b", Size: 0, FileHash: Sum(nil)},
		}},
		&BundleReply{Results: []BundleResult{
			{FileID: 11, Version: 2, OK: true},
			{FileID: 12, Version: 1, OK: true, DedupHit: true},
			{},
		}},
		&ListRequest{},
		&Listing{Entries: []ListEntry{
			{FileID: 3, Name: "docs/report.txt", Size: 1 << 20, Version: 4,
				FileHash: Sum([]byte("content"))},
			{FileID: 9, Name: "old.bin", Size: 12, Version: 2, Deleted: true},
		}},
		&Listing{},
		&Listing{Epoch: 1 << 60, Seq: 43, Incremental: true},
		&ListRequest{Epoch: 1 << 60, Since: 42},
		&Listing{Epoch: 1 << 60, Seq: 43},
		&Listing{Epoch: 9, Seq: 44, Incremental: true, Entries: []ListEntry{
			{FileID: 5, Name: "b", Size: 1, Version: 7, FileHash: Sum([]byte("b"))},
		}},
	}
}

func TestRoundTripAllMessages(t *testing.T) {
	for _, m := range allMessages() {
		enc := Encode(m)
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("%v: Decode: %v", m.Type(), err)
		}
		if !reflect.DeepEqual(normalize(got), normalize(m)) {
			t.Fatalf("%v roundtrip:\n got %#v\nwant %#v", m.Type(), got, m)
		}
	}
}

// TestClientFramesMatchGoldens pins the frames a client sends, and the
// listing it reads, to golden bytes: a delta conditional on its base
// version, a listing request with a cursor, an incremental listing, and
// a Hello. Each must encode to exactly these bytes and decode back to
// the message; any change here is a change of the wire format.
func TestClientFramesMatchGoldens(t *testing.T) {
	for _, tc := range []struct {
		m      Message
		golden string
	}{
		{&DeltaMsg{Name: "a.bin", Payload: []byte("delta bytes"), BaseVersion: 1 << 40},
			"0d2000000005000000612e62696e0b00000064656c74612062797465730000000000010000"},
		{&ListRequest{Epoch: 1 << 40, Since: 7},
			"131000000000000000000100000700000000000000"},
		{&Listing{Entries: []ListEntry{
			// A fixed 16-byte hash (the MD5 of "a", the identity when
			// the golden was cut): the frame carries any 16 bytes.
			{FileID: 3, Name: "a.txt", Size: 42, Version: 2, FileHash: Fingerprint{
				0x0c, 0xc1, 0x75, 0xb9, 0xc0, 0xf1, 0xb6, 0xa8, 0x31, 0xc3, 0x99, 0xe2, 0x69, 0x77, 0x26, 0x61}},
			{FileID: 9, Name: "old", Size: 7, Version: 4, Deleted: true},
		}, Epoch: 1 << 40, Seq: 9, Incremental: true},
			"147700000002000000030000000000000005000000612e7478742a000000000000000200000000000000000cc175b9c0f1b6a831c399e2697726610900000000000000030000006f6c640700000000000000040000000000000001000000000000000000000000000000000000000000010000090000000000000001"},
		{&Hello{User: "alice", Device: "M1", Version: "cloudsync/1"},
			"011e00000005000000616c696365020000004d310b000000636c6f756473796e632f31"},
	} {
		want, err := hex.DecodeString(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		if got := Encode(tc.m); !bytes.Equal(got, want) {
			t.Fatalf("%v encodes to\n %x\nwant the golden\n %x", tc.m.Type(), got, want)
		}
		m, err := Decode(want)
		if err != nil {
			t.Fatalf("decoding the golden %v: %v", tc.m.Type(), err)
		}
		if !reflect.DeepEqual(m, tc.m) {
			t.Fatalf("the golden %v decodes to %#v", tc.m.Type(), m)
		}
	}
}

// TestSumKnownAnswer pins Sum to its definition, each vector taken with
// sha256sum over the prefixed input: a file of at most one leaf is the
// SHA-256 of 0x00 and the file ("", "abc", and exactly one leaf of
// 'a'); a longer one the SHA-256 of 0x01 and its leaf sums (one leaf of
// 'a' and a one-byte leaf).
func TestSumKnownAnswer(t *testing.T) {
	leafA := strings.Repeat("a", LeafSize)
	for _, tc := range []struct{ name, in, want string }{
		{"empty", "", "6e340b9cffb37a989ca544e6bb780a2c"},
		{"abc", "abc", "609f6e36d2405585188d5cfd761f407c"},
		{"one full leaf", leafA, "efc218e05045c10736574abdc1b7ce7f"},
		{"two leaves", leafA + "a", "553a8ddffb209ad5cf57755f33ab1e8a"},
	} {
		if got := Sum([]byte(tc.in)); hex.EncodeToString(got[:]) != tc.want {
			t.Errorf("Sum(%s) = %x, want %s", tc.name, got, tc.want)
		}
	}
}

// normalize maps nil and empty slices to a canonical form for
// comparison.
func normalize(m Message) Message {
	switch v := m.(type) {
	case *IndexUpdate:
		if len(v.BlockHashes) == 0 {
			v.BlockHashes = nil
		}
	case *IndexReply:
		if len(v.NeedBlocks) == 0 {
			v.NeedBlocks = nil
		}
	case *Data:
		if len(v.Payload) == 0 {
			v.Payload = nil
		}
	case *Bundle:
		for i := range v.Entries {
			if len(v.Entries[i].Payload) == 0 {
				v.Entries[i].Payload = nil
			}
		}
	case *Listing:
		if len(v.Entries) == 0 {
			v.Entries = nil
		}
	}
	return m
}

// TestListingCorruptEntryCount mirrors the bundle corruption check: a
// forged entry count that cannot fit in the body must fail decoding,
// not allocate.
func TestListingCorruptEntryCount(t *testing.T) {
	enc := Encode(&Listing{Entries: []ListEntry{{FileID: 1, Name: "x"}}})
	enc[frameHeader] = 0xff // entry-count low byte
	if _, err := Decode(enc); err == nil {
		t.Fatal("corrupt listing entry count decoded without error")
	}
}

func TestEncodedSizeMatchesEncode(t *testing.T) {
	for _, m := range allMessages() {
		if got, want := EncodedSize(m), len(Encode(m)); got != want {
			t.Errorf("%v: EncodedSize = %d, len(Encode) = %d", m.Type(), got, want)
		}
	}
}

func TestMsgTypeStrings(t *testing.T) {
	for _, m := range allMessages() {
		if m.Type().String() == "" {
			t.Errorf("type %d has empty name", m.Type())
		}
	}
	if MsgType(99).String() == "" {
		t.Error("unknown type should render")
	}
}

func TestReadMessageFraming(t *testing.T) {
	var stream bytes.Buffer
	for _, m := range allMessages() {
		stream.Write(Encode(m))
	}
	for _, want := range allMessages() {
		got, err := ReadMessage(&stream)
		if err != nil {
			t.Fatalf("ReadMessage: %v", err)
		}
		if got.Type() != want.Type() {
			t.Fatalf("got %v, want %v", got.Type(), want.Type())
		}
	}
	if _, err := ReadMessage(&stream); err == nil {
		t.Fatal("ReadMessage past end should error")
	}
}

// TestReadMessageHostileLength: a 5-byte header claiming a body of
// almost 4 GiB, then EOF, is an error — and costs a buffer sized by the
// bytes that arrived, not by the length word.
func TestReadMessageHostileLength(t *testing.T) {
	frame := []byte{byte(TypeData), 0xF0, 0xFF, 0xFF, 0xFF}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, buf, err := ReadMessageBuf(bytes.NewReader(frame), nil)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("a header with no body decoded")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("reading a 5-byte frame allocated %d bytes", got)
	}
	if cap(buf) > 4096 {
		t.Fatalf("reading a 5-byte frame grew the buffer to %d bytes", cap(buf))
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := [][]byte{
		nil,
		{1},                      // too short
		{99, 0, 0, 0, 0},         // unknown type
		{1, 10, 0, 0, 0},         // length mismatch
		{1, 1, 0, 0, 0, 0xFF, 0}, // trailing bytes
		append([]byte{2, 4, 0, 0, 0}, 1, 2, 3, 4), // truncated IndexUpdate body
	}
	for i, data := range cases {
		if _, err := Decode(data); err == nil {
			t.Errorf("case %d: Decode succeeded on malformed input", i)
		}
	}
}

func TestDecodeCorruptStringLength(t *testing.T) {
	enc := Encode(&Hello{User: "x"})
	// Corrupt the user-string length to exceed the body.
	enc[5] = 0xFF
	if _, err := Decode(enc); err == nil {
		t.Fatal("corrupt string length not rejected")
	}
}

func TestDecodeCorruptBlockCount(t *testing.T) {
	enc := Encode(&IndexUpdate{Name: "f"})
	// Body layout: fileID(8) nameLen(4)+1 size(8) hash(16) blockSize(4) count(4).
	countOff := 5 + 8 + 4 + 1 + 8 + 16 + 4
	enc[countOff] = 0xFF
	if _, err := Decode(enc); err == nil {
		t.Fatal("corrupt block count not rejected")
	}
}

func TestIndexUpdateSizeGrowsWithBlocks(t *testing.T) {
	small := EncodedSize(&IndexUpdate{Name: "f"})
	big := EncodedSize(&IndexUpdate{Name: "f", BlockHashes: make([]Fingerprint, 100)})
	if big-small != 100*FingerprintSize {
		t.Fatalf("block hashes cost %d bytes, want %d", big-small, 100*FingerprintSize)
	}
}

// Property: arbitrary Data messages round-trip.
func TestPropertyDataRoundTrip(t *testing.T) {
	f := func(id uint64, off int64, payload []byte) bool {
		m := &Data{FileID: id, Offset: off, Payload: payload}
		got, err := Decode(Encode(m))
		if err != nil {
			return false
		}
		d := got.(*Data)
		return d.FileID == id && d.Offset == off && bytes.Equal(d.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: arbitrary Hello strings round-trip (including empty and
// unicode).
func TestPropertyHelloRoundTrip(t *testing.T) {
	f := func(user, device, version string) bool {
		m := &Hello{User: user, Device: device, Version: version}
		got, err := Decode(Encode(m))
		if err != nil {
			return false
		}
		h := got.(*Hello)
		return h.User == user && h.Device == device && h.Version == version
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Decode never panics on arbitrary bytes.
func TestPropertyDecodeRobust(t *testing.T) {
	f := func(data []byte) bool {
		defer func() {
			if recover() != nil {
				t.Fatal("Decode panicked")
			}
		}()
		Decode(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeIndexUpdate(b *testing.B) {
	m := &IndexUpdate{Name: "file", BlockHashes: make([]Fingerprint, 256)}
	for i := 0; i < b.N; i++ {
		Encode(m)
	}
}
