package netem

// SetLink swaps the link parameters (used by controlled bandwidth and
// latency sweeps). It does not affect sessions already in flight.
// Swapping in a different fault profile restarts its schedule from the
// current sim time.
func (p *Path) SetLink(l Link) {
	l.validate()
	if l.Faults != p.link.Faults {
		p.faults = newFaultState(l.Faults, p.clock.Now())
	}
	p.link = l
}

// Busy reports whether a session is currently occupying the path.
func (p *Path) Busy() bool { return p.busyUntil > p.clock.Now() }
