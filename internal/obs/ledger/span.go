package ledger

import "cloudsync/internal/obs"

// AttachTo stamps the snapshot's non-zero causes onto a span as
// "cause_<name>" attributes plus a "cause_total" sum, so trace exports
// carry the per-byte attribution next to the timing. Nil spans and
// empty snapshots leave the span untouched.
func (s Snapshot) AttachTo(span *obs.Span) {
	if span == nil {
		return
	}
	total := s.Total()
	if total == 0 {
		return
	}
	for _, c := range Causes() {
		if s[c] > 0 {
			span.Set(obs.Int("cause_"+c.String(), s[c]))
		}
	}
	span.Set(obs.Int("cause_total", total))
}

// AttachTo stamps the ledger's current snapshot onto a span; see
// Snapshot.AttachTo. Nil ledgers are a no-op.
func (l *Ledger) AttachTo(span *obs.Span) { l.Snapshot().AttachTo(span) }
