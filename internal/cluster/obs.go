package cluster

import (
	"strconv"

	"seneca/internal/obs"
	"seneca/internal/quant"
)

// routeDepthBuckets bound the routing-decision histogram: the load of the
// chosen node at dispatch time, from idle to a few hundred queued.
var routeDepthBuckets = []float64{0, 1, 2, 4, 8, 16, 32, 64, 128, 256}

// initMetrics wires the cluster's counters and gauges into an
// obs.Registry. Callback-backed series keep the internal atomics as the
// single source of truth (the serve-tier idiom); the latency and
// routing-depth histograms are real obs histograms fed on the dispatch
// path. Per-slot depth gauges are registered for every fleet slot up
// front — an empty slot reads 0 — so autoscaling churn never grows the
// label space.
func (c *Cluster) initMetrics(reg *obs.Registry) {
	c.reg = reg

	for _, state := range []NodeState{NodeActive, NodeDraining, NodeEjected} {
		state := state
		reg.GaugeFunc("seneca_cluster_nodes",
			"Fleet nodes by routing state.",
			func() float64 {
				c.mu.RLock()
				defer c.mu.RUnlock()
				n := 0
				for _, nd := range c.slots {
					if nd != nil && nd.stateNow() == state {
						n++
					}
				}
				return float64(n)
			},
			obs.L("state", string(state)))
	}
	reg.GaugeFunc("seneca_cluster_node_capacity",
		"Configured fleet ceiling (MaxNodes).",
		func() float64 { return float64(c.cfg.MaxNodes) })

	for slot := 0; slot < c.cfg.MaxNodes; slot++ {
		slot := slot
		reg.GaugeFunc("seneca_cluster_node_depth",
			"Per-node admission queue depth plus in-flight batches (0 for an empty slot).",
			func() float64 {
				c.mu.RLock()
				n := c.slots[slot]
				c.mu.RUnlock()
				if n == nil {
					return 0
				}
				return float64(n.load())
			},
			obs.L("node", strconv.Itoa(slot)))
	}

	for _, tier := range []Tier{TierInteractive, TierBatch} {
		tier := tier
		reg.CounterFunc("seneca_cluster_requests_total",
			"Requests admitted at the front door, by tier.",
			c.stats.submitted[tier].Load, obs.L("tier", tier.String()))
		reg.CounterFunc("seneca_cluster_goodput_total",
			"Requests completed with a mask, by tier.",
			c.stats.goodput[tier].Load, obs.L("tier", tier.String()))
		reg.CounterFunc("seneca_cluster_shed_total",
			"Requests load-shed (429) because no node admitted their tier.",
			c.stats.shed[tier].Load, obs.L("tier", tier.String()))
	}
	reg.CounterFunc("seneca_cluster_redispatches_total",
		"Dispatches retried on another node after a node-level failure.",
		c.stats.redispatched.Load)
	reg.CounterFunc("seneca_cluster_node_ejections_total",
		"Nodes ejected from routing by the per-node health view.",
		c.stats.ejections.Load)
	reg.CounterFunc("seneca_cluster_scale_events_total",
		"Autoscaler actions.", c.stats.scaleUps.Load, obs.L("direction", "up"))
	reg.CounterFunc("seneca_cluster_scale_events_total",
		"Autoscaler actions.", c.stats.scaleDowns.Load, obs.L("direction", "down"))
	reg.CounterFunc("seneca_cluster_rolling_restarts_total",
		"Nodes replaced by rolling restarts.",
		c.stats.restarts.Load)
	reg.CounterFunc("seneca_cluster_hedges_total",
		"Hedge legs launched for interactive requests past their hedge threshold.",
		c.stats.hedges.Load)
	reg.CounterFunc("seneca_cluster_hedge_wins_total",
		"Requests whose hedge leg answered before the primary.",
		c.stats.hedgeWins.Load)
	reg.CounterFunc("seneca_cluster_retry_budget_denied_total",
		"Retries and hedges refused because the per-window retry budget was spent.",
		c.stats.retryDenied.Load)

	for _, tier := range []Tier{TierInteractive, TierBatch} {
		c.mLatency[tier] = reg.Histogram("seneca_cluster_request_latency_seconds",
			"Front-door request latency from dispatch to completion, by tier.",
			obs.DefBuckets, obs.L("tier", tier.String()))
	}
	c.mRouteDepth = reg.Histogram("seneca_cluster_route_depth",
		"Load (queue depth + in-flight batches) of the chosen node at each routing decision.",
		routeDepthBuckets)

	reg.Gauge("seneca_cluster_info",
		"Cluster configuration (constant 1; dimensions carry the config).",
		obs.L("model", c.model), obs.L("placement", string(c.cfg.Placement))).Set(1)
	// The replicas report into registries of their own, so the fleet's
	// scrape names the kernel body itself.
	quant.ExportKernelISA(reg)
}
