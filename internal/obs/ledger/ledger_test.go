package ledger

import (
	"bytes"
	"strings"
	"testing"

	"cloudsync/internal/obs"
)

func TestNilLedgerIsNoOp(t *testing.T) {
	var l *Ledger
	l.Add(Payload, 100)
	l.Reset()
	l.MergeSnapshot(Snapshot{})
	l.AttachTo(nil)
	if got := l.Get(Payload); got != 0 {
		t.Fatalf("nil Get = %d", got)
	}
	if got := l.Total(); got != 0 {
		t.Fatalf("nil Total = %d", got)
	}
	if s := l.Snapshot(); s.Total() != 0 {
		t.Fatalf("nil Snapshot total = %d", s.Total())
	}
}

func TestAddGetTotal(t *testing.T) {
	l := New()
	l.Add(Payload, 1000)
	l.Add(Metadata, 50)
	l.Add(Payload, 24)
	l.Add(Framing, 0)    // ignored
	l.Add(Payload, -5)   // ignored
	l.Add(Unset, 99)     // ignored
	l.Add(NumCauses, 99) // ignored
	if got := l.Get(Payload); got != 1024 {
		t.Errorf("Payload = %d, want 1024", got)
	}
	if got := l.Total(); got != 1074 {
		t.Errorf("Total = %d, want 1074", got)
	}
	l.Reset()
	if got := l.Total(); got != 0 {
		t.Errorf("Total after Reset = %d", got)
	}
}

// TestCauseStringRoundTrip checks that no two causes share a label, so
// a label in a table or a Prometheus series names exactly one cause.
func TestCauseStringRoundTrip(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Causes() {
		s := c.String()
		if seen[s] {
			t.Fatalf("duplicate cause label %q", s)
		}
		seen[s] = true
	}
}

func TestSnapshotMergeAssociative(t *testing.T) {
	a := Snapshot{Metadata: 1, Payload: 2}
	b := Snapshot{Payload: 10, Framing: 3}
	c := Snapshot{Retransmit: 7}
	left := a.Merge(b).Merge(c)
	right := a.Merge(b.Merge(c))
	if left != right {
		t.Fatalf("merge not associative: %v vs %v", left, right)
	}
	if left.Get(Payload) != 12 || left.Total() != 23 {
		t.Fatalf("merged = %v", left)
	}
}

func TestWritePrometheus(t *testing.T) {
	l := New()
	l.Add(Payload, 2048)
	var buf bytes.Buffer
	if err := l.WritePrometheus(&buf, "sync_wire_bytes"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE sync_wire_bytes counter",
		`sync_wire_bytes{cause="payload"} 2048`,
		`sync_wire_bytes{cause="framing"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestTable(t *testing.T) {
	l := New()
	l.Add(Payload, 900)
	l.Add(Framing, 100)
	out := l.Table("session breakdown")
	for _, want := range []string{"session breakdown", "payload", "90.0%", "framing", "10.0%", "total", "1000"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "resume") {
		t.Errorf("zero causes should be omitted:\n%s", out)
	}
}

func TestAttachTo(t *testing.T) {
	tr := obs.NewTracer()
	sp := tr.Start("cell")
	l := New()
	l.Add(DedupProbe, 16)
	l.Add(Payload, 4096)
	l.AttachTo(sp)
	sp.End()
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("spans = %d", len(spans))
	}
	d := spans[0]
	if got := d.Attr("cause_payload"); got != "4096" {
		t.Errorf("cause_payload = %q", got)
	}
	if got := d.Attr("cause_dedup_probe"); got != "16" {
		t.Errorf("cause_dedup_probe = %q", got)
	}
	if got := d.Attr("cause_total"); got != "4112" {
		t.Errorf("cause_total = %q", got)
	}
	if got := d.Attr("cause_resume"); got != "" {
		t.Errorf("zero cause attached: %q", got)
	}
}
