// Package breaker is the closed/open/half-open circuit breaker both serving
// tiers run: one per runner in internal/serve (a trip evicts the runner's
// backend) and one per node in internal/cluster (a trip ejects the replica
// from routing). The rule, written down once:
//
//   - A failure while closed counts toward the threshold; reaching it trips
//     the breaker open for the cooldown.
//   - Past the cooldown the next claim is a probe and the breaker is
//     half-open; it admits one probe at a time.
//   - A failure while half-open (a failed probe) re-opens the breaker with a
//     fresh cooldown and reports a trip.
//   - A failure while open — a straggler dispatched before the trip —
//     changes nothing.
//   - Any success closes the breaker.
//   - A claim whose work never ran releases only the probe it holds.
package breaker

import (
	"sync"
	"time"
)

// State is a breaker's position.
type State int32

// Breaker states, in the order their exported gauges number them.
const (
	Closed State = iota
	Open
	HalfOpen
)

// String returns the conventional lowercase state name.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Breaker is one circuit breaker. It is safe for concurrent use.
type Breaker struct {
	threshold int
	cooldown  time.Duration

	mu        sync.Mutex
	state     State
	fails     int       // consecutive failures since the last success
	openUntil time.Time // when an open breaker admits its probe
	probing   bool      // a half-open probe is out
}

// New returns a closed breaker that trips after threshold consecutive
// failures and admits a probe cooldown after each trip.
func New(threshold int, cooldown time.Duration) *Breaker {
	return &Breaker{threshold: threshold, cooldown: cooldown}
}

// Claim asks to run one unit of work at now. probe marks the claim as the
// half-open probe, which its holder must Release if the work never runs.
func (b *Breaker) Claim(now time.Time) (ok, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.state == Closed:
		return true, false
	case b.probing, now.Before(b.openUntil):
		return false, false
	}
	b.state = HalfOpen
	b.probing = true
	return true, true
}

// Release undoes a claim whose work never ran: a probe frees the half-open
// breaker's probe slot, so the next claim is the probe. Release(false) holds
// nothing and leaves a live probe alone.
func (b *Breaker) Release(probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probing = false
	}
}

// Success records work that came back healthy.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = Closed
	b.fails = 0
	b.probing = false
}

// Failure records work that failed at now and reports whether it tripped the
// breaker open.
func (b *Breaker) Failure(now time.Time) (tripped bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Open:
		return false
	case Closed:
		if b.fails++; b.fails < b.threshold {
			return false
		}
	}
	b.state = Open
	b.openUntil = now.Add(b.cooldown)
	b.probing = false
	return true
}

// State returns the breaker's current position.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// NextProbe returns when Claim next admits a probe — the end of the cooldown,
// past or future — and the zero time while the breaker is closed or its probe
// is out.
func (b *Breaker) NextProbe() time.Time {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == Closed || b.probing {
		return time.Time{}
	}
	return b.openUntil
}
