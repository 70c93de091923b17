package backend

import "time"

// Candidate is one pool slot as the router sees it at placement time: the
// backend's predicted cost for this batch, whether it may take traffic
// (its breaker is closed and its self-check passes), whether it has room
// for this batch right now, and how many batches it already holds.
type Candidate struct {
	Cost    Cost
	Healthy bool
	// Full marks a healthy candidate with no room for this batch at the
	// moment. It is never chosen, but it still counts when the router asks
	// whether the energy budget and the latency SLO can be met: a batch
	// waits for a busy backend that fits them rather than spill onto an
	// idle one that does not.
	Full     bool
	InFlight int
}

// RouterConfig is the placement policy: a latency objective and an energy
// budget, both optional. The zero value routes purely by predicted
// completion time with least-loaded tie-breaking — exactly the homogeneous
// pool's old behaviour.
type RouterConfig struct {
	// LatencySLO is the per-batch latency objective. When at least one
	// eligible backend is predicted to complete within it, the router
	// optimizes energy among those (the QuantU-Net trade: meet the
	// deadline, then spend the fewest joules). 0 disables the objective.
	LatencySLO time.Duration
	// EnergyBudget caps predicted joules per frame. A backend over budget
	// is only ever chosen when no healthy backend fits the budget. 0
	// disables the budget.
	EnergyBudget float64
}

// completion estimates when a batch handed to the candidate would finish:
// its predicted batch latency scaled by the work already queued on it (the
// occupancy term — each in-flight batch is assumed comparably sized).
func completion(c Candidate) time.Duration {
	return time.Duration(int64(c.Cost.Latency) * int64(1+c.InFlight))
}

// Route picks the pool slot for one micro-batch of the given frame count.
// It returns -1 when no candidate can take it (the pool is cooling or busy;
// the caller waits). The invariants, pinned by the property suite:
//
//  1. an unhealthy or full candidate is never chosen;
//  2. a candidate over the energy budget is never chosen while a healthy
//     within-budget alternative exists;
//  3. among eligible candidates meeting the latency SLO, the router picks
//     the most energy-efficient; with no SLO (or none meeting it), the
//     earliest predicted completion wins;
//  4. cost-model ties fall back to the least-loaded candidate (then the
//     lowest index, for determinism).
func Route(cfg RouterConfig, frames int, cands []Candidate) int {
	if frames < 1 {
		frames = 1
	}
	// Pass 1: is the energy budget satisfiable at all?
	budgetFeasible := false
	if cfg.EnergyBudget > 0 {
		for _, c := range cands {
			if c.Healthy && c.Cost.JoulesPerFrame(frames) <= cfg.EnergyBudget {
				budgetFeasible = true
				break
			}
		}
	}
	eligible := func(c Candidate) bool {
		if !c.Healthy {
			return false
		}
		if budgetFeasible && c.Cost.JoulesPerFrame(frames) > cfg.EnergyBudget {
			return false
		}
		return true
	}
	// Pass 2: does any eligible candidate meet the SLO?
	sloFeasible := false
	if cfg.LatencySLO > 0 {
		for _, c := range cands {
			if eligible(c) && completion(c) <= cfg.LatencySLO {
				sloFeasible = true
				break
			}
		}
	}
	// Pass 3: pick. Under a feasible SLO the primary key is energy; without
	// one it is predicted completion. Ties fall to load, then index.
	best := -1
	for i, c := range cands {
		if !eligible(c) || c.Full {
			continue
		}
		if sloFeasible && completion(c) > cfg.LatencySLO {
			continue
		}
		if best < 0 || better(cfg, sloFeasible, frames, c, cands[best]) {
			best = i
		}
	}
	return best
}

// better reports whether candidate a beats the incumbent b under the active
// objective. Strict inequality everywhere: on full ties the incumbent (the
// lower index) wins, keeping Route deterministic.
func better(cfg RouterConfig, sloFeasible bool, frames int, a, b Candidate) bool {
	type key struct {
		primary, secondary float64
		load               int
	}
	mk := func(c Candidate) key {
		if sloFeasible {
			return key{c.Cost.JoulesPerFrame(frames), completion(c).Seconds(), c.InFlight}
		}
		return key{completion(c).Seconds(), c.Cost.JoulesPerFrame(frames), c.InFlight}
	}
	ka, kb := mk(a), mk(b)
	switch {
	case ka.primary != kb.primary:
		return ka.primary < kb.primary
	case ka.secondary != kb.secondary:
		return ka.secondary < kb.secondary
	default:
		return ka.load < kb.load
	}
}
