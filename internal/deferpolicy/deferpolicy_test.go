package deferpolicy

import (
	"testing"
	"testing/quick"
	"time"
)

// stepper threads one policy's state through a stream of updates, the
// way the simulated client and the planner do.
type stepper struct {
	p Policy
	s ASDState
}

func (st *stepper) delay(now time.Duration, pendingBytes int64) time.Duration {
	d, next := st.p.Step(st.s, now, pendingBytes)
	st.s = next
	return d
}

func asd(eps, tmax time.Duration) *stepper {
	return &stepper{p: Policy{Kind: ASD, Epsilon: eps, TMax: tmax}}
}

func TestNone(t *testing.T) {
	var p Policy
	if p.Kind != None || p.Validate() != nil {
		t.Fatalf("zero Policy = %v (valid: %v), want a valid None", p.Kind, p.Validate())
	}
	if d, s := p.Step(ASDState{}, 5*time.Second, 1000); d != 0 || s != (ASDState{}) {
		t.Fatalf("None Step = (%v, %+v), want (0, zero state)", d, s)
	}
}

func TestFixed(t *testing.T) {
	p := Policy{Kind: Fixed, T: 4200 * time.Millisecond}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if got, s := p.Step(ASDState{}, time.Duration(i)*time.Second, int64(i*100)); got != p.T || s.Seen {
			t.Fatalf("Step = (%v, %+v), want (%v, untouched state)", got, s, p.T)
		}
	}
	if err := (Policy{Kind: Fixed}).Validate(); err != nil {
		t.Fatalf("zero fixed T refused: %v", err)
	}
}

func TestFixedNegativeRefused(t *testing.T) {
	if (Policy{Kind: Fixed, T: -time.Second}).Validate() == nil {
		t.Fatal("negative fixed deferment accepted")
	}
}

func TestASDValidation(t *testing.T) {
	for _, c := range []struct{ eps, tmax time.Duration }{
		{0, time.Minute},
		{2 * time.Second, time.Minute},
		{time.Millisecond, 0},
	} {
		if (Policy{Kind: ASD, Epsilon: c.eps, TMax: c.tmax}).Validate() == nil {
			t.Errorf("ASD(ε=%v, Tmax=%v) accepted", c.eps, c.tmax)
		}
	}
	if err := (Policy{Kind: ASD, Epsilon: time.Second, TMax: time.Nanosecond}).Validate(); err != nil {
		t.Errorf("ASD at the edge of its range refused: %v", err)
	}
}

func TestASDTracksInterUpdateTime(t *testing.T) {
	// Updates every 7 s: the deferment should converge to slightly
	// above 7 s — long enough to batch the next update.
	a := asd(500*time.Millisecond, time.Minute)
	now := time.Duration(0)
	var d time.Duration
	for i := 0; i < 30; i++ {
		d = a.delay(now, 1000)
		now += 7 * time.Second
	}
	if d <= 7*time.Second {
		t.Fatalf("converged deferment %v, want > 7s (slightly above Δt)", d)
	}
	if d > 9*time.Second {
		t.Fatalf("converged deferment %v, want ≈ 7–9s", d)
	}
}

func TestASDAdaptsDown(t *testing.T) {
	a := asd(100*time.Millisecond, time.Minute)
	now := time.Duration(0)
	// Slow updates first.
	for i := 0; i < 10; i++ {
		a.delay(now, 0)
		now += 20 * time.Second
	}
	slow := a.s.T
	// Then fast updates.
	for i := 0; i < 20; i++ {
		a.delay(now, 0)
		now += time.Second
	}
	fast := a.s.T
	if fast >= slow {
		t.Fatalf("deferment did not adapt down: slow=%v fast=%v", slow, fast)
	}
	if fast > 3*time.Second {
		t.Fatalf("fast-cadence deferment %v, want ≈ 1–2s", fast)
	}
}

func TestASDCapsAtTMax(t *testing.T) {
	a := asd(time.Second, 5*time.Second)
	now := time.Duration(0)
	for i := 0; i < 10; i++ {
		if d := a.delay(now, 0); d > 5*time.Second {
			t.Fatalf("deferment %v exceeds TMax", d)
		}
		now += time.Hour // huge gaps
	}
	if a.s.T != 5*time.Second {
		t.Fatalf("estimate = %v, want TMax", a.s.T)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{None: "none", Fixed: "fixed", ASD: "asd", UDS: "uds"} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", uint8(k), got, want)
		}
	}
	if (Policy{Kind: UDS + 1}).Validate() == nil {
		t.Error("unknown kind accepted")
	}
}

// Property: ASD deferment never exceeds TMax and is always positive.
func TestPropertyASDBounds(t *testing.T) {
	f := func(gapsMs []uint16) bool {
		a := asd(200*time.Millisecond, 30*time.Second)
		now := time.Duration(0)
		for _, g := range gapsMs {
			d := a.delay(now, 0)
			if d <= 0 || d > 30*time.Second {
				return false
			}
			now += time.Duration(g) * time.Millisecond
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: with a constant inter-update gap Δt < TMax−ε, ASD converges
// to a value in (Δt, Δt + 2ε] — "slightly longer than the latest
// inter-update time".
func TestPropertyASDConvergence(t *testing.T) {
	f := func(gapSecRaw uint8) bool {
		gap := time.Duration(gapSecRaw%20+1) * time.Second
		eps := 500 * time.Millisecond
		a := asd(eps, time.Minute)
		now := time.Duration(0)
		for i := 0; i < 60; i++ {
			a.delay(now, 0)
			now += gap
		}
		got := a.s.T
		return got > gap && got <= gap+2*eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestUDS(t *testing.T) {
	p := Policy{Kind: UDS, Threshold: 4 << 20, MaxDelay: time.Minute}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if d, _ := p.Step(ASDState{}, 0, 1<<20); d != time.Minute {
		t.Fatalf("below threshold: delay = %v", d)
	}
	if d, _ := p.Step(ASDState{}, 0, 4<<20); d != 0 {
		t.Fatalf("at threshold: delay = %v, want 0", d)
	}
}

func TestUDSMisconfiguredRefused(t *testing.T) {
	for _, p := range []Policy{
		{Kind: UDS},
		{Kind: UDS, Threshold: 1, MaxDelay: 0},
		{Kind: UDS, Threshold: 0, MaxDelay: time.Second},
	} {
		if p.Validate() == nil {
			t.Errorf("misconfigured UDS %+v accepted", p)
		}
	}
}

// TestStepMatchesASDStep pins that an ASD policy's Step is exactly the
// Eq. (2) kernel, whatever the pending bytes — so a caller threading
// ASDState through Step and one threading it through ASDStep can never
// disagree about a deferment.
func TestStepMatchesASDStep(t *testing.T) {
	const eps, tmax = 100 * time.Millisecond, 10 * time.Second
	p := Policy{Kind: ASD, Epsilon: eps, TMax: tmax}
	var viaStep, viaKernel ASDState
	now := time.Duration(0)
	rng := uint64(12345)
	for i := 0; i < 200; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		now += time.Duration(rng%5000) * time.Millisecond
		got, next := p.Step(viaStep, now, int64(rng%(1<<20)))
		want, nextKernel := ASDStep(viaKernel, now, eps, tmax)
		viaStep, viaKernel = next, nextKernel
		if got != want {
			t.Fatalf("update %d at %v: Step = %v, ASDStep = %v", i, now, got, want)
		}
		if viaStep != viaKernel {
			t.Fatalf("update %d: state diverged: Step %+v, ASDStep %+v", i, viaStep, viaKernel)
		}
	}
}

// TestASDStepFixpoint checks the analytic fixpoint of Eq. (2): under a
// constant inter-update interval Δt, the estimate converges to
// Δt + 2ε — "slightly above the inter-update time", which is the
// property that lets ASD keep deferring through a burst.
func TestASDStepFixpoint(t *testing.T) {
	const eps, tmax = 50 * time.Millisecond, time.Hour
	const dt = 2 * time.Second
	var s ASDState
	var delay time.Duration
	now := time.Duration(0)
	for i := 0; i < 64; i++ {
		delay, s = ASDStep(s, now, eps, tmax)
		now += dt
	}
	want := dt + 2*eps
	if diff := delay - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Fatalf("fixpoint delay = %v, want ≈ %v", delay, want)
	}
}
