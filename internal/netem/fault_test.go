package netem

import (
	"testing"
	"time"

	"cloudsync/internal/capture"
	"cloudsync/internal/obs/ledger"
	"cloudsync/internal/simclock"
	"cloudsync/internal/wire"
)

// faultSetup builds a path over the given link and returns it with its
// capture, ready to run sessions.
func faultSetup(link Link, persistent bool) (*simclock.Clock, *capture.Capture, *Path) {
	clk := simclock.New()
	cap := capture.New()
	conn := wire.NewConn(wire.DefaultParams(), cap)
	return clk, cap, NewPath(clk, link, conn, persistent)
}

// runSessions drives n identical back-to-back one-exchange sessions
// (each queues behind the previous) and returns total wire traffic and
// the completion time, so every injected stall or retransmission
// extends the run.
func runSessions(link Link, n int) (traffic int64, end time.Duration, stats FaultStats) {
	clk, cap, p := faultSetup(link, true)
	ex := []Exchange{{UpApp: 32 << 10, DownApp: 1 << 10, Cause: ledger.Payload}}
	for i := 0; i < n; i++ {
		p.Do(ex, 0, nil)
	}
	clk.Run()
	up, down := cap.Since(capture.Mark{})
	return up + down, clk.Now(), p.FaultStats()
}

func faultyLink(seed uint64, loss float64, drop, stall time.Duration) Link {
	l := Beijing()
	l.Faults = &FaultProfile{
		Seed: seed, LossProb: loss,
		MeanDropInterval:  drop,
		MeanStallInterval: stall,
		StallDuration:     stall / 10,
	}
	return l
}

func TestNoFaultsMatchesPlainLink(t *testing.T) {
	plain, plainEnd, _ := runSessions(Beijing(), 20)
	l := Beijing()
	l.Faults = &FaultProfile{Seed: 7} // zero rates: no injections
	faulty, faultyEnd, stats := runSessions(l, 20)
	if plain != faulty || plainEnd != faultyEnd {
		t.Fatalf("zero-rate profile changed the run: traffic %d vs %d, end %v vs %v",
			plain, faulty, plainEnd, faultyEnd)
	}
	if stats != (FaultStats{}) {
		t.Fatalf("zero-rate profile injected faults: %+v", stats)
	}
}

func TestLossChargesRetransmissions(t *testing.T) {
	clean, _, _ := runSessions(Beijing(), 50)
	lossy, lossyEnd, stats := runSessions(faultyLink(1, 0.3, 0, 0), 50)
	if stats.Retransmits == 0 {
		t.Fatal("30% loss over 50 exchanges injected no retransmissions")
	}
	if lossy <= clean {
		t.Fatalf("lossy traffic %d not above clean %d", lossy, clean)
	}
	// Each retransmission also pays the adaptive retry timeout
	// (2×RTT + 200 ms for an unset RetryTimeout).
	rto := 2*Beijing().RTT + 200*time.Millisecond
	if lossyEnd < time.Duration(stats.Retransmits)*rto {
		t.Fatalf("end %v does not cover %d retry timeouts", lossyEnd, stats.Retransmits)
	}
}

func TestDropsForceReconnects(t *testing.T) {
	clean, _, _ := runSessions(Beijing(), 60)
	dropping, _, stats := runSessions(faultyLink(2, 0, 5*time.Second, 0), 60)
	if stats.Drops == 0 {
		t.Fatal("5s mean drop interval over a minute injected no drops")
	}
	if dropping <= clean {
		t.Fatalf("dropping traffic %d not above clean %d (handshakes missing)", dropping, clean)
	}
}

func TestStallsCostTimeNotBytes(t *testing.T) {
	clean, cleanEnd, _ := runSessions(Beijing(), 40)
	stalled, stalledEnd, stats := runSessions(faultyLink(3, 0, 0, 4*time.Second), 40)
	if stats.Stalls == 0 {
		t.Fatal("no stalls injected")
	}
	if stalled != clean {
		t.Fatalf("stalls changed traffic: %d vs %d", stalled, clean)
	}
	if stalledEnd <= cleanEnd {
		t.Fatalf("stalls did not extend the run: %v vs %v", stalledEnd, cleanEnd)
	}
}

func TestFaultScheduleDeterministic(t *testing.T) {
	link := FaultyBeijing()
	t1, e1, s1 := runSessions(link, 80)
	t2, e2, s2 := runSessions(link, 80)
	if t1 != t2 || e1 != e2 || s1 != s2 {
		t.Fatalf("same seed diverged: (%d, %v, %+v) vs (%d, %v, %+v)", t1, e1, s1, t2, e2, s2)
	}
	l3 := link
	f := *link.Faults
	f.Seed = 99
	l3.Faults = &f
	t3, _, _ := runSessions(l3, 80)
	if t3 == t1 {
		t.Fatalf("different seeds produced identical traffic %d (suspicious)", t1)
	}
}

func TestFaultyBeijingProfile(t *testing.T) {
	l := FaultyBeijing()
	if l.Faults == nil || l.UpBps != Beijing().UpBps {
		t.Fatalf("FaultyBeijing = %+v", l)
	}
	_, _, stats := runSessions(l, 300)
	if stats.Retransmits == 0 || stats.Drops == 0 || stats.Stalls == 0 {
		t.Fatalf("FaultyBeijing injected nothing over 5 minutes: %+v", stats)
	}
}

func TestSetLinkRestartsFaultSchedule(t *testing.T) {
	clk, _, p := faultSetup(Beijing(), true)
	if p.FaultStats() != (FaultStats{}) {
		t.Fatal("fresh fault-free path has stats")
	}
	l := faultyLink(4, 0.5, 0, 0)
	p.SetLink(l)
	ex := []Exchange{{UpApp: 1 << 10, DownApp: 128, Cause: ledger.Metadata}}
	for i := 0; i < 40; i++ {
		p.Do(ex, 0, nil)
	}
	clk.Run()
	if p.FaultStats().Retransmits == 0 {
		t.Fatal("SetLink with faults did not arm the schedule")
	}
	p.SetLink(Beijing())
	if p.FaultStats() != (FaultStats{}) {
		t.Fatal("SetLink back to a clean link kept the old fault state")
	}
}

func TestInvalidProfilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("LossProb = 1 did not panic")
		}
	}()
	l := Beijing()
	l.Faults = &FaultProfile{LossProb: 1}
	faultSetup(l, true)
}
