package cluster

import (
	"sync/atomic"
)

// clusterStats is the cluster's internal counter block; all fields are
// atomics so the dispatch hot path never takes the topology lock.
type clusterStats struct {
	submitted    [2]atomic.Uint64 // by Tier
	goodput      [2]atomic.Uint64 // completed, by Tier
	shed         [2]atomic.Uint64 // load-shed (429), by Tier
	redispatched atomic.Uint64    // dispatches retried on another node
	ejections    atomic.Uint64    // nodes removed from routing by health
	scaleUps     atomic.Uint64
	scaleDowns   atomic.Uint64
	restarts     atomic.Uint64 // nodes replaced by rolling restarts

	hedges      atomic.Uint64 // hedge legs launched
	hedgeWins   atomic.Uint64 // requests whose hedge leg answered first
	retryDenied atomic.Uint64 // retries/hedges refused by the retry budget
}

// TierStats is one admission tier's request accounting.
type TierStats struct {
	Submitted uint64 `json:"submitted"`
	Completed uint64 `json:"completed"`
	Shed      uint64 `json:"shed"`
	// Latency quantiles of completed requests, extracted from the tier's
	// histogram bucket counts.
	P50LatencyMS  float64 `json:"p50_latency_ms"`
	P99LatencyMS  float64 `json:"p99_latency_ms"`
	P999LatencyMS float64 `json:"p999_latency_ms"`
}

// NodeStats is one replica's row in the fleet snapshot.
type NodeStats struct {
	Slot           int    `json:"slot"`
	Gen            int    `json:"gen"`
	State          string `json:"state"`
	Depth          int    `json:"queue_depth"`
	InFlight       int    `json:"in_flight_batches"`
	Completed      uint64 `json:"completed"`
	Rejected       uint64 `json:"rejected"`
	Runners        int    `json:"runners"`
	HealthyRunners int    `json:"healthy_runners"`
	// Lanes is the replica's dispatch capacity in frame lanes, LanesBusy how
	// much of it staged and executing batches hold (serve.Stats).
	Lanes     int `json:"lanes"`
	LanesBusy int `json:"lanes_busy"`
}

// Stats is a point-in-time snapshot of the fleet, as exported by
// GET /statz on the front door.
type Stats struct {
	Model      string `json:"model"`
	InputShape [3]int `json:"input_shape"`
	Placement  string `json:"placement"`

	MinNodes    int `json:"min_nodes"`
	MaxNodes    int `json:"max_nodes"`
	ActiveNodes int `json:"active_nodes"`

	Nodes []NodeStats `json:"nodes"`

	Interactive TierStats `json:"interactive"`
	Batch       TierStats `json:"batch"`

	Redispatches uint64 `json:"redispatches"`
	Ejections    uint64 `json:"node_ejections"`
	ScaleUps     uint64 `json:"scale_ups"`
	ScaleDowns   uint64 `json:"scale_downs"`
	Restarts     uint64 `json:"rolling_restarts"`

	Hedges      uint64 `json:"hedges"`
	HedgeWins   uint64 `json:"hedge_wins"`
	RetryDenied uint64 `json:"retry_budget_denied"`
}

// Stats snapshots the fleet. Concurrent mutation means the snapshot is
// consistent per field, not across fields.
func (c *Cluster) Stats() Stats {
	st := Stats{
		Model:        c.model,
		InputShape:   [3]int{c.inC, c.inH, c.inW},
		Placement:    string(c.cfg.Placement),
		MinNodes:     c.cfg.MinNodes,
		MaxNodes:     c.cfg.MaxNodes,
		Redispatches: c.stats.redispatched.Load(),
		Ejections:    c.stats.ejections.Load(),
		ScaleUps:     c.stats.scaleUps.Load(),
		ScaleDowns:   c.stats.scaleDowns.Load(),
		Restarts:     c.stats.restarts.Load(),
		Hedges:       c.stats.hedges.Load(),
		HedgeWins:    c.stats.hedgeWins.Load(),
		RetryDenied:  c.stats.retryDenied.Load(),
	}
	for tier, dst := range []*TierStats{&st.Interactive, &st.Batch} {
		dst.Submitted = c.stats.submitted[tier].Load()
		dst.Completed = c.stats.goodput[tier].Load()
		dst.Shed = c.stats.shed[tier].Load()
		qs := c.mLatency[tier].Quantiles(0.50, 0.99, 0.999)
		dst.P50LatencyMS = qs[0] * 1e3
		dst.P99LatencyMS = qs[1] * 1e3
		dst.P999LatencyMS = qs[2] * 1e3
	}

	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, n := range c.slots {
		if n == nil {
			continue
		}
		s := n.srv.Stats()
		state := n.stateNow()
		if state == NodeActive {
			st.ActiveNodes++
		}
		st.Nodes = append(st.Nodes, NodeStats{
			Slot:           n.slot,
			Gen:            n.gen,
			State:          string(state),
			Depth:          s.QueueDepth,
			InFlight:       s.InFlight,
			Completed:      s.Completed,
			Rejected:       s.Rejected,
			Runners:        s.Runners,
			HealthyRunners: s.HealthyRunners,
			Lanes:          s.Lanes,
			LanesBusy:      s.LanesBusy,
		})
	}
	return st
}

// Health is the fleet-level health summary behind GET /healthz.
type Health struct {
	// Status is "ok", "degraded" (some node not active, or a node's own
	// runner pool degraded), "draining" or "unavailable" (no routable
	// node — the 503 case).
	Status   string   `json:"status"`
	Draining bool     `json:"draining"`
	Model    string   `json:"model"`
	Nodes    int      `json:"nodes"`
	Active   int      `json:"active_nodes"`
	States   []string `json:"node_states"`
}

// Health snapshots fleet health. Ejected nodes past their cooldown still
// count as non-active (they admit only probes).
func (c *Cluster) Health() Health {
	h := Health{Model: c.model}
	c.mu.RLock()
	closing := c.closing
	degradedPool := false
	for _, n := range c.slots {
		if n == nil {
			continue
		}
		h.Nodes++
		state := n.stateNow()
		h.States = append(h.States, string(state))
		if state == NodeActive {
			h.Active++
		}
		if sh := n.srv.Health(); sh.Degraded {
			degradedPool = true
		}
	}
	c.mu.RUnlock()
	h.Draining = closing
	switch {
	case closing:
		h.Status = "draining"
	case h.Active == 0:
		h.Status = "unavailable"
	case h.Active < h.Nodes || degradedPool:
		h.Status = "degraded"
	default:
		h.Status = "ok"
	}
	return h
}
