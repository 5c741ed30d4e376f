// Package deferpolicy implements sync-deferment policies — the design
// choice § 6.1 of the paper studies for batching frequent file
// modifications:
//
//   - None: sync as soon as possible (Dropbox, Box, Ubuntu One).
//   - Fixed: a fixed deferment T restarted on every update (Google
//     Drive ≈ 4.2 s, SugarSync ≈ 6 s, OneDrive ≈ 10.5 s); efficient
//     while updates arrive faster than T, useless once they arrive
//     slower.
//   - ASD: the paper's proposed adaptive sync defer, Eq. (2):
//     T_i = min(T_{i−1}/2 + Δt_i/2 + ε, T_max) — the deferment tracks
//     the observed inter-update time and stays slightly above it.
//   - UDS: the byte-counter baseline from the authors' earlier work
//     [36]: sync once pending bytes exceed a threshold.
//
// A Policy is a plain comparable value. Its caller keeps the adaptive
// state and steps it on every update; the returned duration (re)arms
// the caller's defer timer, and a zero delay means "sync now". The
// simulated client and the watch-mode planner both step the same value,
// so the two can never disagree about a deferment.
package deferpolicy

import (
	"fmt"
	"time"
)

// Kind selects one of the § 6.1 deferment mechanisms.
type Kind uint8

const (
	// None syncs immediately.
	None Kind = iota
	// Fixed defers by a constant T, restarted on every update
	// (debounce): updates arriving faster than T batch indefinitely;
	// updates slower than T each sync separately.
	Fixed
	// ASD is the adaptive sync defer mechanism, Eq. (2).
	ASD
	// UDS defers while pending bytes are below Threshold and syncs
	// immediately once they reach it; MaxDelay bounds how long a small
	// update can linger.
	UDS
)

// String names the kind in experiment and command output.
func (k Kind) String() string {
	switch k {
	case None:
		return "none"
	case Fixed:
		return "fixed"
	case ASD:
		return "asd"
	case UDS:
		return "uds"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Policy is one deferment policy: a kind and the parameters that kind
// reads (the others are ignored). The zero value is None.
type Policy struct {
	Kind Kind
	// T is the Fixed deferment.
	T time.Duration
	// Epsilon keeps the ASD deferment slightly above the inter-update
	// time; the paper requires ε ∈ (0, 1) seconds. TMax caps it so idle
	// files do not wait unboundedly.
	Epsilon time.Duration
	TMax    time.Duration
	// Threshold and MaxDelay parameterize UDS.
	Threshold int64
	MaxDelay  time.Duration
}

// Validate reports whether the policy's parameters are ones the paper
// allows: a non-negative fixed T, ε ∈ (0, 1 s] and a positive TMax for
// ASD, and a positive threshold and maximum delay for UDS.
func (p Policy) Validate() error {
	switch p.Kind {
	case None:
	case Fixed:
		if p.T < 0 {
			return fmt.Errorf("deferpolicy: negative fixed deferment %v", p.T)
		}
	case ASD:
		if p.Epsilon <= 0 || p.Epsilon > time.Second {
			return fmt.Errorf("deferpolicy: ASD epsilon %v outside (0, 1s]", p.Epsilon)
		}
		if p.TMax <= 0 {
			return fmt.Errorf("deferpolicy: ASD TMax %v must be positive", p.TMax)
		}
	case UDS:
		if p.Threshold <= 0 || p.MaxDelay <= 0 {
			return fmt.Errorf("deferpolicy: UDS threshold %d and max delay %v must be positive",
				p.Threshold, p.MaxDelay)
		}
	default:
		return fmt.Errorf("deferpolicy: unknown kind %v", p.Kind)
	}
	return nil
}

// Step decides one update at virtual time now with pendingBytes
// awaiting synchronization. It returns the delay to (re)arm the sync
// timer with (zero = sync now) and the successor state; only ASD reads
// or changes the state. Step is pure — equal inputs give equal
// outputs — so the caller owns the state and may carry it across syncs,
// planning rounds or processes. The policy must be valid.
func (p Policy) Step(s ASDState, now time.Duration, pendingBytes int64) (time.Duration, ASDState) {
	switch p.Kind {
	case Fixed:
		return p.T, s
	case ASD:
		return ASDStep(s, now, p.Epsilon, p.TMax)
	case UDS:
		if pendingBytes >= p.Threshold {
			return 0, s
		}
		return p.MaxDelay, s
	default:
		return 0, s
	}
}

// ASDState is the adaptive estimator's complete state: the previous
// deferment estimate T_{i−1} and the time of the last observed update.
// Both are properties of the update stream, not of individual sync
// sessions — Eq. (2) wants a long idle gap to lengthen the deferment
// (capped at TMax) — so a caller never clears it when a sync completes.
type ASDState struct {
	// T is the current deferment estimate T_{i−1}.
	T time.Duration
	// LastUpdate is the virtual time of the most recent update.
	LastUpdate time.Duration
	// Seen records whether any update has been observed; the first
	// update has no inter-update interval and contributes Δt = 0.
	Seen bool
}

// ASDStep applies the paper's Eq. (2) to one update at virtual time
// now: T_i = min(T_{i−1}/2 + Δt_i/2 + ε, T_max). It returns the new
// deferment (the delay to re-arm the sync timer with) and the
// successor state.
func ASDStep(s ASDState, now, epsilon, tmax time.Duration) (time.Duration, ASDState) {
	var dt time.Duration
	if s.Seen {
		dt = now - s.LastUpdate
	}
	t := s.T/2 + dt/2 + epsilon
	if t > tmax {
		t = tmax
	}
	return t, ASDState{T: t, LastUpdate: now, Seen: true}
}
