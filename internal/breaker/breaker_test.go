package breaker

import (
	"testing"
	"time"
)

// TestBreakerRule drives one breaker (threshold 2, cooldown 10 s) through a
// script of events and checks each outcome, the state after it and the
// next-probe time. Time is explicit, so the script never sleeps.
func TestBreakerRule(t *testing.T) {
	const cooldown = 10 * time.Second
	t0 := time.Unix(1000, 0)
	at := func(s int) time.Time { return t0.Add(time.Duration(s) * time.Second) }
	type step struct {
		op     string // claim, release, release-probe, success, failure
		at     int    // seconds past t0
		ok     bool   // claim: admitted; failure: tripped
		probe  bool   // claim: the claim is the probe
		state  State
		nextAt int // seconds past t0; -1 = the zero time
	}
	for _, tc := range []struct {
		name  string
		steps []step
	}{
		{"closed admits and counts failures to the threshold", []step{
			{op: "claim", ok: true, state: Closed, nextAt: -1},
			{op: "failure", at: 1, state: Closed, nextAt: -1},
			{op: "claim", at: 1, ok: true, state: Closed, nextAt: -1},
			{op: "failure", at: 2, ok: true, state: Open, nextAt: 12},
			{op: "claim", at: 11, state: Open, nextAt: 12},
		}},
		{"a success resets the streak", []step{
			{op: "failure", state: Closed, nextAt: -1},
			{op: "success", state: Closed, nextAt: -1},
			{op: "failure", state: Closed, nextAt: -1},
			{op: "failure", ok: true, state: Open, nextAt: 10},
		}},
		{"one probe at a time", []step{
			{op: "failure", state: Closed, nextAt: -1},
			{op: "failure", ok: true, state: Open, nextAt: 10},
			{op: "claim", at: 10, ok: true, probe: true, state: HalfOpen, nextAt: -1},
			{op: "claim", at: 11, state: HalfOpen, nextAt: -1},
			{op: "claim", at: 50, state: HalfOpen, nextAt: -1},
		}},
		{"release(false) leaves a live probe alone", []step{
			{op: "failure", state: Closed, nextAt: -1},
			{op: "failure", ok: true, state: Open, nextAt: 10},
			{op: "claim", at: 10, ok: true, probe: true, state: HalfOpen, nextAt: -1},
			{op: "release", state: HalfOpen, nextAt: -1},
			{op: "claim", at: 11, state: HalfOpen, nextAt: -1},
		}},
		{"release(true) frees the probe slot", []step{
			{op: "failure", state: Closed, nextAt: -1},
			{op: "failure", ok: true, state: Open, nextAt: 10},
			{op: "claim", at: 10, ok: true, probe: true, state: HalfOpen, nextAt: -1},
			{op: "release-probe", state: HalfOpen, nextAt: 10},
			{op: "claim", at: 11, ok: true, probe: true, state: HalfOpen, nextAt: -1},
		}},
		{"a failed probe re-opens with a fresh cooldown and trips", []step{
			{op: "failure", state: Closed, nextAt: -1},
			{op: "failure", ok: true, state: Open, nextAt: 10},
			{op: "claim", at: 10, ok: true, probe: true, state: HalfOpen, nextAt: -1},
			{op: "failure", at: 13, ok: true, state: Open, nextAt: 23},
			{op: "claim", at: 22, state: Open, nextAt: 23},
			{op: "claim", at: 23, ok: true, probe: true, state: HalfOpen, nextAt: -1},
		}},
		{"a straggler's failure while open changes nothing", []step{
			{op: "failure", state: Closed, nextAt: -1},
			{op: "failure", ok: true, state: Open, nextAt: 10},
			{op: "failure", at: 5, state: Open, nextAt: 10},
			{op: "failure", at: 9, state: Open, nextAt: 10},
			{op: "claim", at: 10, ok: true, probe: true, state: HalfOpen, nextAt: -1},
		}},
		{"success closes from open", []step{
			{op: "failure", state: Closed, nextAt: -1},
			{op: "failure", ok: true, state: Open, nextAt: 10},
			{op: "success", at: 1, state: Closed, nextAt: -1},
			{op: "claim", at: 1, ok: true, state: Closed, nextAt: -1},
		}},
		{"success closes from half-open", []step{
			{op: "failure", state: Closed, nextAt: -1},
			{op: "failure", ok: true, state: Open, nextAt: 10},
			{op: "claim", at: 10, ok: true, probe: true, state: HalfOpen, nextAt: -1},
			{op: "success", at: 11, state: Closed, nextAt: -1},
			{op: "failure", at: 12, state: Closed, nextAt: -1},
		}},
	} {
		b := New(2, cooldown)
		for i, s := range tc.steps {
			now := at(s.at)
			var ok, probe bool
			switch s.op {
			case "claim":
				ok, probe = b.Claim(now)
			case "release":
				b.Release(false)
			case "release-probe":
				b.Release(true)
			case "success":
				b.Success()
			case "failure":
				ok = b.Failure(now)
			}
			if ok != s.ok || probe != s.probe {
				t.Errorf("%s: step %d %s@%ds: got (%t, %t), want (%t, %t)", tc.name, i, s.op, s.at, ok, probe, s.ok, s.probe)
			}
			want := time.Time{}
			if s.nextAt >= 0 {
				want = at(s.nextAt)
			}
			if st, next := b.State(), b.NextProbe(); st != s.state || !next.Equal(want) {
				t.Errorf("%s: step %d %s@%ds: state %s, next probe %v; want %s, %v", tc.name, i, s.op, s.at, st, next, s.state, want)
			}
		}
	}
}

func TestStateString(t *testing.T) {
	for s, want := range map[State]string{Closed: "closed", Open: "open", HalfOpen: "half-open", 7: "unknown"} {
		if got := s.String(); got != want {
			t.Errorf("State(%d).String() = %q, want %q", s, got, want)
		}
	}
}
