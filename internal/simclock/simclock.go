// Package simclock implements a deterministic discrete-event scheduler
// with virtual time.
//
// Every actor in a simulation (sync clients, cloud back ends, network
// links) schedules callbacks on a shared *Clock. Time only advances when
// Run (or Step) executes the next pending event, so an experiment that
// spans hours of simulated time completes in microseconds of wall time
// and is bit-for-bit reproducible: events that share a firing time run
// in the order they were scheduled.
//
// The event queue is a hand-rolled binary heap over a slice of event
// values rather than container/heap over pointers: a trace replay
// schedules hundreds of thousands of events, and the value heap makes
// the handle-free Post/PostDelay path allocation-free per event. At and
// Schedule still return a *Timer handle (one small allocation) for
// callers that need cancellation; Reset re-arms a handle the caller
// keeps, allocating nothing.
package simclock

import (
	"fmt"
	"time"
)

// Clock is a discrete-event virtual clock. The zero value is not usable;
// construct with New.
type Clock struct {
	now    time.Duration
	events []event // binary min-heap ordered by (at, seq)
	seq    uint64
	// running guards against re-entrant Run calls, which would corrupt
	// the event loop's notion of "current event".
	running bool
}

// New returns a Clock positioned at virtual time zero with no pending
// events.
func New() *Clock {
	return &Clock{}
}

// Now reports the current virtual time as an offset from the simulation
// epoch.
func (c *Clock) Now() time.Duration {
	return c.now
}

// Timer is a handle to a scheduled event. It can be stopped before it
// fires. A zero Timer a caller keeps is ready for Reset.
type Timer struct {
	canceled bool
	fired    bool
	seq      uint64 // the live event's seq; an entry with another is dead
}

// Stop cancels the timer. It reports whether the call prevented the
// event from firing: false means the event already ran or was already
// stopped.
func (t *Timer) Stop() bool {
	if t == nil || t.canceled || t.fired {
		return false
	}
	t.canceled = true
	return true
}

// Pending reports whether the timer is still scheduled to fire.
func (t *Timer) Pending() bool {
	return t != nil && !t.canceled && !t.fired
}

// event is one heap entry. timer is nil for handle-free events (Post),
// which is what makes the hot scheduling path allocation-free.
type event struct {
	at    time.Duration
	seq   uint64
	fn    func()
	timer *Timer
}

func (e *event) canceled() bool {
	return e.timer != nil && (e.timer.canceled || e.timer.seq != e.seq)
}

// Schedule arranges for fn to run at Now()+delay. A negative delay is
// treated as zero (fire on the next Step). fn must not be nil.
func (c *Clock) Schedule(delay time.Duration, fn func()) *Timer {
	if delay < 0 {
		delay = 0
	}
	return c.At(c.now+delay, fn)
}

// At arranges for fn to run at absolute virtual time t. Scheduling in
// the past is clamped to the present. fn must not be nil.
func (c *Clock) At(t time.Duration, fn func()) *Timer {
	tm := &Timer{}
	c.push(t, fn, tm)
	return tm
}

// Reset stops t and re-arms it to run fn at Now()+delay, as Stop then
// Schedule would, but on the caller's own handle: a deadline pushed
// back by every event (a deferment timer) allocates nothing per re-arm.
func (c *Clock) Reset(t *Timer, delay time.Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	t.canceled, t.fired = false, false
	c.push(c.now+delay, fn, t)
}

// Post arranges for fn to run at absolute virtual time t, exactly like
// At, but returns no Timer handle and therefore performs no per-event
// allocation — the form the experiment schedulers use when fanning a
// trace's worth of operations onto the clock.
func (c *Clock) Post(t time.Duration, fn func()) {
	c.push(t, fn, nil)
}

// PostDelay is the handle-free form of Schedule: fn runs at Now()+delay.
func (c *Clock) PostDelay(delay time.Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	c.push(c.now+delay, fn, nil)
}

func (c *Clock) push(t time.Duration, fn func(), tm *Timer) {
	if fn == nil {
		panic("simclock: scheduling a nil function")
	}
	if t < c.now {
		t = c.now
	}
	if tm != nil {
		tm.seq = c.seq
	}
	c.events = append(c.events, event{at: t, seq: c.seq, fn: fn, timer: tm})
	c.seq++
	c.siftUp(len(c.events) - 1)
}

// Step executes the single earliest pending event, advancing virtual
// time to its firing time. It reports whether an event ran; false means
// the queue was empty.
func (c *Clock) Step() bool {
	for len(c.events) > 0 {
		ev := c.pop()
		if ev.canceled() {
			continue
		}
		c.now = ev.at
		if ev.timer != nil {
			ev.timer.fired = true
		}
		ev.fn()
		return true
	}
	return false
}

// Run executes pending events in timestamp order until none remain.
// Events may schedule further events; Run continues until the queue
// drains. Run panics if called re-entrantly from within an event.
func (c *Clock) Run() {
	if c.running {
		panic("simclock: re-entrant Run")
	}
	c.running = true
	defer func() { c.running = false }()
	for c.Step() {
	}
}

// RunUntil executes pending events with firing times ≤ deadline, then
// advances the clock to deadline (even if idle before it). Events
// scheduled past the deadline remain pending.
func (c *Clock) RunUntil(deadline time.Duration) {
	if c.running {
		panic("simclock: re-entrant RunUntil")
	}
	c.running = true
	defer func() { c.running = false }()
	for {
		ev := c.peek()
		if ev == nil || ev.at > deadline {
			break
		}
		c.Step()
	}
	if c.now < deadline {
		c.now = deadline
	}
}

// Pending reports the number of scheduled, non-canceled events.
func (c *Clock) Pending() int {
	n := 0
	for i := range c.events {
		if !c.events[i].canceled() {
			n++
		}
	}
	return n
}

func (c *Clock) peek() *event {
	for len(c.events) > 0 {
		ev := &c.events[0]
		if ev.canceled() {
			c.pop()
			continue
		}
		return ev
	}
	return nil
}

// String describes the clock state, for debugging.
func (c *Clock) String() string {
	return fmt.Sprintf("simclock(now=%v pending=%d)", c.now, c.Pending())
}

// --- binary min-heap over event values, ordered by (at, seq) ---

func (c *Clock) less(i, j int) bool {
	a, b := &c.events[i], &c.events[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (c *Clock) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !c.less(i, parent) {
			break
		}
		c.events[i], c.events[parent] = c.events[parent], c.events[i]
		i = parent
	}
}

func (c *Clock) siftDown(i int) {
	n := len(c.events)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		min := l
		if r := l + 1; r < n && c.less(r, l) {
			min = r
		}
		if !c.less(min, i) {
			return
		}
		c.events[i], c.events[min] = c.events[min], c.events[i]
		i = min
	}
}

// pop removes and returns the earliest event.
func (c *Clock) pop() event {
	ev := c.events[0]
	n := len(c.events) - 1
	c.events[0] = c.events[n]
	c.events[n] = event{} // release the closure for GC
	c.events = c.events[:n]
	if n > 0 {
		c.siftDown(0)
	}
	return ev
}
