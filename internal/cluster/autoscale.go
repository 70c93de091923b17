package cluster

import (
	"context"
	"time"
)

// controlLoop is the queue-depth-driven autoscaler: every EvalInterval it
// compares the fleet's aggregate load to its aggregate queue capacity.
// Above HighWaterFrac for SustainWindow it spawns a replica (to MaxNodes);
// below LowWaterFrac for SustainWindow it drains and retires one (to
// MinNodes). ScaleCooldown separates actions so a spawn's effect is
// observed before the next decision.
func (c *Cluster) controlLoop() {
	defer c.ctlDone.Done()
	ticker := time.NewTicker(c.cfg.EvalInterval)
	defer ticker.Stop()
	var highSince, lowSince, lastScale time.Time
	for {
		var now time.Time
		select {
		case <-c.ctlStop:
			return
		case now = <-ticker.C:
		}

		active, load := c.fleetLoad()
		if active == 0 {
			continue
		}
		capacity := active * c.nodeQueueCap
		frac := float64(load) / float64(capacity)
		switch {
		case frac >= c.cfg.HighWaterFrac:
			if highSince.IsZero() {
				highSince = now
			}
			lowSince = time.Time{}
		case frac <= c.cfg.LowWaterFrac:
			if lowSince.IsZero() {
				lowSince = now
			}
			highSince = time.Time{}
		default:
			highSince, lowSince = time.Time{}, time.Time{}
		}
		cooled := lastScale.IsZero() || now.Sub(lastScale) >= c.cfg.ScaleCooldown

		if !highSince.IsZero() && now.Sub(highSince) >= c.cfg.SustainWindow && cooled && active < c.cfg.MaxNodes {
			if err := c.spawn(); err == nil {
				c.stats.scaleUps.Add(1)
				lastScale = now
			}
			highSince = time.Time{}
		}
		if !lowSince.IsZero() && now.Sub(lowSince) >= c.cfg.SustainWindow && cooled && active > c.cfg.MinNodes {
			if c.retireOne() {
				c.stats.scaleDowns.Add(1)
				lastScale = now
			}
			lowSince = time.Time{}
		}
	}
}

// fleetLoad returns the number of active nodes and their summed load.
func (c *Cluster) fleetLoad() (active, load int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, n := range c.slots {
		if n == nil || n.stateNow() != NodeActive {
			continue
		}
		active++
		load += n.load()
	}
	return active, load
}

// retireOne drains and removes the highest-slot active node (highest slot
// so the consistent-hash ring loses its newest vnodes — long-lived keyed
// clients on the base fleet keep their affinity). The drain runs
// asynchronously, and Shutdown waits for it: the node leaves routing
// immediately, finishes its admitted work, then its slot empties.
func (c *Cluster) retireOne() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	var victim *node
	for i := len(c.slots) - 1; i >= 0; i-- {
		if n := c.slots[i]; n != nil && n.stateNow() == NodeActive {
			victim = n
			break
		}
	}
	if victim == nil {
		return false
	}
	victim.draining.Store(true)
	c.ring = buildRing(c.slots)
	return c.goLocked(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		victim.srv.Shutdown(ctx)
		c.mu.Lock()
		if c.slots[victim.slot] == victim {
			c.slots[victim.slot] = nil
			c.ring = buildRing(c.slots)
		}
		c.mu.Unlock()
	})
}
