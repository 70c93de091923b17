package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"seneca/internal/serve"
	"seneca/internal/tensor"
)

// Handler returns the HTTP front door of the fleet:
//
//	POST /v1/segment                one CT slice in, one mask out; the
//	                                X-Seneca-Tier header ("interactive",
//	                                default, or "batch") selects the
//	                                admission tier and X-Seneca-Key pins
//	                                a consistent-hash position
//	GET  /healthz                   fleet health (degraded vs 503)
//	GET  /statz                     Stats snapshot as JSON
//	GET  /metrics                   Prometheus text format
//	POST /v1/admin/rolling-restart  replace every node in turn (202)
//
// Request bodies accept the same three encodings as a single serve.Server
// (octet-stream, JSON, NIfTI). Responses carry X-Seneca-Mask-Shape,
// X-Seneca-Batch and X-Seneca-Node (the slot that served the request).
func (c *Cluster) Handler() http.Handler {
	d := &serve.Door[fleetRoute]{
		C: c.inC, H: c.inH, W: c.inW, MaxBody: c.cfg.MaxBodyBytes,
		Route:      routeFleet,
		Segment:    c.segment,
		RetryAfter: func(fleetRoute) time.Duration { return c.RetryAfter() },
	}
	mux := d.Mux(c.healthz, func() any { return c.Stats() }, c.reg.Handler())
	mux.HandleFunc("/v1/admin/rolling-restart", c.handleRollingRestart)
	return mux
}

// fleetRoute is a request's admission tier and consistent-hash key.
type fleetRoute struct {
	tier Tier
	key  string
}

var errBadTier = errors.New(`cluster: X-Seneca-Tier must be "interactive" or "batch"`)

func routeFleet(r *http.Request) (fleetRoute, int, error) {
	rt := fleetRoute{key: r.Header.Get("X-Seneca-Key")}
	switch r.Header.Get("X-Seneca-Tier") {
	case "", "interactive":
	case "batch":
		rt.tier = TierBatch
	default:
		return rt, http.StatusBadRequest, errBadTier
	}
	return rt, 0, nil
}

func (c *Cluster) segment(ctx context.Context, rt fleetRoute, img *tensor.Tensor, h http.Header) ([]uint8, int, error) {
	res, err := c.Do(ctx, img, rt.key, rt.tier)
	if err != nil {
		return nil, 0, err
	}
	h.Set("X-Seneca-Node", strconv.Itoa(res.Node))
	if res.Hedged {
		h.Set(serve.HedgedHeader, "1")
	}
	return res.Mask, res.Occupancy, nil
}

// healthz is the Health snapshot. Degraded still answers 200 — the fleet
// serves on its remaining nodes. Draining or zero routable nodes is the 503
// case.
func (c *Cluster) healthz() (int, any) {
	h := c.Health()
	if h.Status == "draining" || h.Status == "unavailable" {
		return http.StatusServiceUnavailable, h
	}
	return http.StatusOK, h
}

func (c *Cluster) handleRollingRestart(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	// The restart outlives the admin request: run it in the background
	// with its own generous deadline (Shutdown waits for it) and report
	// 202. Progress shows up in /statz (rolling_restarts) and /healthz
	// (degraded while a node is out).
	c.mu.Lock()
	started := c.goLocked(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		defer cancel()
		c.RollingRestart(ctx)
	})
	c.mu.Unlock()
	if !started {
		http.Error(w, ErrDraining.Error(), http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	fmt.Fprintf(w, "{\"status\":\"restarting\",\"nodes\":%d}\n", c.Health().Nodes)
}
