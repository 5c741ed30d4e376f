package simclock

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestZeroClockStartsAtZero(t *testing.T) {
	c := New()
	if c.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", c.Now())
	}
	if c.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", c.Pending())
	}
}

func TestScheduleAdvancesTime(t *testing.T) {
	c := New()
	var fired time.Duration
	c.Schedule(5*time.Second, func() { fired = c.Now() })
	c.Run()
	if fired != 5*time.Second {
		t.Fatalf("event fired at %v, want 5s", fired)
	}
	if c.Now() != 5*time.Second {
		t.Fatalf("Now() = %v, want 5s", c.Now())
	}
}

func TestEventsRunInTimestampOrder(t *testing.T) {
	c := New()
	var order []int
	c.Schedule(3*time.Second, func() { order = append(order, 3) })
	c.Schedule(1*time.Second, func() { order = append(order, 1) })
	c.Schedule(2*time.Second, func() { order = append(order, 2) })
	c.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSimultaneousEventsRunFIFO(t *testing.T) {
	c := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		c.Schedule(time.Second, func() { order = append(order, i) })
	}
	c.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO for equal timestamps)", i, v, i)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	c := New()
	var times []time.Duration
	c.Schedule(time.Second, func() {
		times = append(times, c.Now())
		c.Schedule(time.Second, func() {
			times = append(times, c.Now())
		})
	})
	c.Run()
	if len(times) != 2 || times[0] != time.Second || times[1] != 2*time.Second {
		t.Fatalf("times = %v, want [1s 2s]", times)
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	c := New()
	c.Schedule(time.Second, func() {
		c.Schedule(-5*time.Second, func() {
			if c.Now() != time.Second {
				t.Errorf("negative delay fired at %v, want 1s", c.Now())
			}
		})
	})
	c.Run()
}

func TestAtInPastClampsToNow(t *testing.T) {
	c := New()
	c.Schedule(10*time.Second, func() {})
	c.Run()
	fired := false
	c.At(time.Second, func() { fired = true })
	c.Run()
	if !fired {
		t.Fatal("past-scheduled event never fired")
	}
	if c.Now() != 10*time.Second {
		t.Fatalf("Now() = %v, want 10s (clock must not move backwards)", c.Now())
	}
}

func TestTimerStop(t *testing.T) {
	c := New()
	fired := false
	tm := c.Schedule(time.Second, func() { fired = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending before Run")
	}
	if !tm.Stop() {
		t.Fatal("first Stop should report true")
	}
	if tm.Stop() {
		t.Fatal("second Stop should report false")
	}
	if tm.Pending() {
		t.Fatal("stopped timer should not be pending")
	}
	c.Run()
	if fired {
		t.Fatal("stopped timer fired")
	}
}

// TestResetRearmsOneHandle: Reset moves a kept handle's deadline, as
// Stop then Schedule would — only the last arming fires, the earlier
// ones are dead entries — and works again after the timer fired.
func TestResetRearmsOneHandle(t *testing.T) {
	c := New()
	var tm Timer
	var fired []string
	c.Reset(&tm, 5*time.Second, func() { fired = append(fired, "first") })
	c.Reset(&tm, 2*time.Second, func() { fired = append(fired, "second") })
	if n := c.Pending(); n != 1 || !tm.Pending() {
		t.Fatalf("after two arms: Pending %d, timer pending %v; want 1, true", n, tm.Pending())
	}
	c.Run()
	if len(fired) != 1 || fired[0] != "second" || c.Now() != 2*time.Second {
		t.Fatalf("fired %v by %v, want [second] at 2s", fired, c.Now())
	}
	if tm.Pending() || tm.Stop() {
		t.Fatal("fired timer should be neither pending nor stoppable")
	}
	c.Reset(&tm, time.Second, func() { fired = append(fired, "third") })
	if !tm.Stop() {
		t.Fatal("Stop after Reset should report true")
	}
	c.Reset(&tm, time.Second, func() { fired = append(fired, "fourth") })
	c.Run()
	if len(fired) != 2 || fired[1] != "fourth" || c.Now() != 3*time.Second {
		t.Fatalf("fired %v by %v, want [second fourth] at 3s", fired, c.Now())
	}
}

func TestStopAfterFire(t *testing.T) {
	c := New()
	tm := c.Schedule(time.Second, func() {})
	c.Run()
	if tm.Stop() {
		t.Fatal("Stop after firing should report false")
	}
}

func TestStopNilTimer(t *testing.T) {
	var tm *Timer
	if tm.Stop() {
		t.Fatal("Stop on nil timer should report false")
	}
	if tm.Pending() {
		t.Fatal("nil timer should not be pending")
	}
}

func TestRunUntil(t *testing.T) {
	c := New()
	var fired []time.Duration
	for _, d := range []time.Duration{1, 2, 3, 4} {
		d := d * time.Second
		c.Schedule(d, func() { fired = append(fired, d) })
	}
	c.RunUntil(2 * time.Second)
	if len(fired) != 2 {
		t.Fatalf("fired %d events, want 2", len(fired))
	}
	if c.Now() != 2*time.Second {
		t.Fatalf("Now() = %v, want 2s", c.Now())
	}
	if c.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", c.Pending())
	}
	// RunUntil with idle queue advances time.
	c.RunUntil(10 * time.Second)
	if c.Now() != 10*time.Second {
		t.Fatalf("Now() = %v, want 10s", c.Now())
	}
	if len(fired) != 4 {
		t.Fatalf("fired %d events, want 4", len(fired))
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	c := New()
	if c.Step() {
		t.Fatal("Step on empty clock should report false")
	}
}

func TestPendingSkipsCanceled(t *testing.T) {
	c := New()
	tm := c.Schedule(time.Second, func() {})
	c.Schedule(2*time.Second, func() {})
	tm.Stop()
	if got := c.Pending(); got != 1 {
		t.Fatalf("Pending() = %d, want 1", got)
	}
}

func TestReentrantRunPanics(t *testing.T) {
	c := New()
	c.Schedule(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Error("re-entrant Run did not panic")
			}
		}()
		c.Run()
	})
	c.Run()
}

func TestString(t *testing.T) {
	c := New()
	c.Schedule(time.Second, func() {})
	if s := c.String(); s == "" {
		t.Fatal("String() returned empty")
	}
}

// Property: however events are scheduled, they fire in nondecreasing
// timestamp order and the clock finishes at the maximum timestamp.
func TestPropertyOrderedFiring(t *testing.T) {
	f := func(delaysMs []uint16) bool {
		if len(delaysMs) == 0 {
			return true
		}
		c := New()
		var fired []time.Duration
		for _, ms := range delaysMs {
			d := time.Duration(ms) * time.Millisecond
			c.Schedule(d, func() { fired = append(fired, c.Now()) })
		}
		c.Run()
		if len(fired) != len(delaysMs) {
			return false
		}
		if !sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] }) {
			return false
		}
		var max time.Duration
		for _, ms := range delaysMs {
			if d := time.Duration(ms) * time.Millisecond; d > max {
				max = d
			}
		}
		return c.Now() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: stopping a random subset of timers prevents exactly that
// subset from firing.
func TestPropertyStopSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 50; iter++ {
		c := New()
		n := 1 + rng.Intn(40)
		fired := make([]bool, n)
		timers := make([]*Timer, n)
		for i := 0; i < n; i++ {
			i := i
			timers[i] = c.Schedule(time.Duration(rng.Intn(100))*time.Millisecond, func() { fired[i] = true })
		}
		stopped := make([]bool, n)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				timers[i].Stop()
				stopped[i] = true
			}
		}
		c.Run()
		for i := 0; i < n; i++ {
			if fired[i] == stopped[i] {
				t.Fatalf("iter %d timer %d: fired=%v stopped=%v", iter, i, fired[i], stopped[i])
			}
		}
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := New()
		for j := 0; j < 100; j++ {
			c.Schedule(time.Duration(j)*time.Millisecond, func() {})
		}
		c.Run()
	}
}
