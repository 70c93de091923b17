package backend

import (
	"math/rand"
	"testing"
	"time"
)

func TestRouteEmptyAndUnhealthy(t *testing.T) {
	if got := Route(RouterConfig{}, 1, nil); got != -1 {
		t.Fatalf("Route(nil) = %d, want -1", got)
	}
	cands := []Candidate{
		{Cost: Cost{Latency: time.Millisecond, Joules: 1}},
		{Cost: Cost{Latency: time.Millisecond, Joules: 1}},
	}
	if got := Route(RouterConfig{}, 1, cands); got != -1 {
		t.Fatalf("Route(all unhealthy) = %d, want -1", got)
	}
}

// TestRouteLeastLoadedOnTies pins the homogeneous-pool degeneration: with
// identical costs and no SLO/budget, Route is exactly least-loaded
// dispatch with lowest-index tie-breaking — the pre-heterogeneous
// behaviour the serve tests rely on.
func TestRouteLeastLoadedOnTies(t *testing.T) {
	c := Cost{Latency: 2 * time.Millisecond, Joules: 0.5}
	cands := []Candidate{
		{Cost: c, Healthy: true, InFlight: 2},
		{Cost: c, Healthy: true, InFlight: 1},
		{Cost: c, Healthy: true, InFlight: 1},
		{Cost: c, Healthy: true, InFlight: 3},
	}
	if got := Route(RouterConfig{}, 4, cands); got != 1 {
		t.Fatalf("Route = %d, want 1 (least loaded, lowest index)", got)
	}
}

func TestRouteSLOPrefersEfficiency(t *testing.T) {
	cfg := RouterConfig{LatencySLO: 10 * time.Millisecond}
	cands := []Candidate{
		// Fast but hungry (GPU-shaped).
		{Cost: Cost{Latency: 2 * time.Millisecond, Joules: 4}, Healthy: true},
		// Slower but frugal, still inside the SLO (DPU-shaped).
		{Cost: Cost{Latency: 8 * time.Millisecond, Joules: 0.5}, Healthy: true},
		// Frugal but outside the SLO.
		{Cost: Cost{Latency: 20 * time.Millisecond, Joules: 0.1}, Healthy: true},
	}
	if got := Route(cfg, 1, cands); got != 1 {
		t.Fatalf("Route = %d, want 1 (most efficient inside the SLO)", got)
	}
	// Without the SLO the router chases completion time instead.
	if got := Route(RouterConfig{}, 1, cands); got != 0 {
		t.Fatalf("Route = %d, want 0 (fastest) without an SLO", got)
	}
	// Candidates that would meet the SLO but are full right now still hold
	// it: the batch waits for one of them rather than go to the idle
	// candidate that would miss it.
	cands[0].Full, cands[1].Full = true, true
	if got := Route(cfg, 1, cands); got != -1 {
		t.Fatalf("Route = %d, want -1 (wait for a candidate inside the SLO)", got)
	}
	if got := Route(RouterConfig{}, 1, cands); got != 2 {
		t.Fatalf("Route = %d, want 2 (the one with room) without an SLO", got)
	}
}

func TestRouteEnergyBudget(t *testing.T) {
	cfg := RouterConfig{EnergyBudget: 1.0}
	cands := []Candidate{
		{Cost: Cost{Latency: time.Millisecond, Joules: 4}, Healthy: true},         // over budget, fast
		{Cost: Cost{Latency: 5 * time.Millisecond, Joules: 0.8}, Healthy: true},   // in budget
		{Cost: Cost{Latency: 3 * time.Millisecond, Joules: 0.9}, Healthy: false},  // in budget, down
		{Cost: Cost{Latency: 100 * time.Millisecond, Joules: 0.2}, Healthy: true}, // in budget, slow
	}
	if got := Route(cfg, 1, cands); got != 1 {
		t.Fatalf("Route = %d, want 1 (fastest within budget)", got)
	}
	// A within-budget candidate that is merely full still holds the budget:
	// the next one within budget takes the batch, and when every one of them
	// is full the batch waits rather than spill onto the candidate over it.
	cands[1].Full = true
	if got := Route(cfg, 1, cands); got != 3 {
		t.Fatalf("Route = %d, want 3 (the within-budget candidate with room)", got)
	}
	cands[3].Full = true
	if got := Route(cfg, 1, cands); got != -1 {
		t.Fatalf("Route = %d, want -1 (within-budget candidates are busy, not gone)", got)
	}
	cands[1].Full, cands[3].Full = false, false
	// When nothing healthy fits the budget, the budget yields rather than
	// starving the pool.
	cands[1].Healthy = false
	cands[3].Healthy = false
	if got := Route(cfg, 1, cands); got != 0 {
		t.Fatalf("Route = %d, want 0 (budget infeasible, fall back to fastest healthy)", got)
	}
}

// TestRoutePropertyInvariants drives Route across thousands of randomized
// queue states, SLOs and energy budgets and checks the contract:
//
//  1. never place on an unhealthy backend (and return -1 iff none healthy);
//  2. never exceed the energy budget when a feasible alternative exists;
//  3. honor the latency SLO whenever some eligible candidate meets it, and
//     pick the most energy-efficient of those;
//  4. without an applicable SLO, minimize predicted completion;
//  5. on full cost ties, fall back to the least-loaded candidate.
func TestRoutePropertyInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	latencies := []time.Duration{time.Millisecond, 2 * time.Millisecond, 4 * time.Millisecond, 8 * time.Millisecond}
	joules := []float64{0.25, 0.5, 1, 2, 4}
	slos := []time.Duration{0, 2 * time.Millisecond, 6 * time.Millisecond, 30 * time.Millisecond}
	budgets := []float64{0, 0.4, 1.1, 8}

	for trial := 0; trial < 5000; trial++ {
		n := 1 + rng.Intn(6)
		frames := 1 + rng.Intn(8)
		cfg := RouterConfig{
			LatencySLO:   slos[rng.Intn(len(slos))],
			EnergyBudget: budgets[rng.Intn(len(budgets))],
		}
		cands := make([]Candidate, n)
		for i := range cands {
			cands[i] = Candidate{
				Cost: Cost{
					Latency: latencies[rng.Intn(len(latencies))],
					Joules:  joules[rng.Intn(len(joules))],
				},
				Healthy:  rng.Intn(4) > 0, // 75% healthy
				InFlight: rng.Intn(4),
			}
		}
		got := Route(cfg, frames, cands)

		anyHealthy := false
		for _, c := range cands {
			if c.Healthy {
				anyHealthy = true
			}
		}
		if !anyHealthy {
			if got != -1 {
				t.Fatalf("trial %d: Route = %d with no healthy candidate", trial, got)
			}
			continue
		}
		if got < 0 || got >= n {
			t.Fatalf("trial %d: Route = %d out of range with healthy candidates", trial, got)
		}
		chosen := cands[got]
		if !chosen.Healthy {
			t.Fatalf("trial %d: placed on unhealthy candidate %d", trial, got)
		}

		// Invariant 2: energy budget.
		inBudget := func(c Candidate) bool {
			return cfg.EnergyBudget <= 0 || c.Cost.JoulesPerFrame(frames) <= cfg.EnergyBudget
		}
		budgetFeasible := false
		for _, c := range cands {
			if c.Healthy && inBudget(c) {
				budgetFeasible = true
			}
		}
		if budgetFeasible && !inBudget(chosen) {
			t.Fatalf("trial %d: chose %d over budget (%.3f J/frame > %.3f) with a feasible alternative",
				trial, got, chosen.Cost.JoulesPerFrame(frames), cfg.EnergyBudget)
		}
		eligible := func(c Candidate) bool {
			return c.Healthy && (!budgetFeasible || inBudget(c))
		}

		// Invariants 3 and 4: objective.
		meetsSLO := func(c Candidate) bool {
			return cfg.LatencySLO > 0 && completion(c) <= cfg.LatencySLO
		}
		sloFeasible := false
		for _, c := range cands {
			if eligible(c) && meetsSLO(c) {
				sloFeasible = true
			}
		}
		if sloFeasible {
			if !meetsSLO(chosen) {
				t.Fatalf("trial %d: chose %d missing the SLO while another eligible candidate meets it", trial, got)
			}
			for i, c := range cands {
				if eligible(c) && meetsSLO(c) && c.Cost.JoulesPerFrame(frames) < chosen.Cost.JoulesPerFrame(frames) {
					t.Fatalf("trial %d: candidate %d is SLO-feasible and strictly more efficient than chosen %d", trial, i, got)
				}
			}
		} else {
			for i, c := range cands {
				if eligible(c) && completion(c) < completion(chosen) {
					t.Fatalf("trial %d: candidate %d completes strictly earlier than chosen %d", trial, i, got)
				}
			}
		}

		// Invariant 5: full ties fall back to least-loaded.
		allSame := true
		for _, c := range cands {
			if c.Cost != cands[0].Cost || !c.Healthy || c.InFlight != cands[0].InFlight {
				allSame = false
			}
		}
		if allSame && got != 0 {
			t.Fatalf("trial %d: full tie should pick index 0, got %d", trial, got)
		}
	}
}
