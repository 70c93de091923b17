package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"seneca/internal/serve"
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
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/segment", c.handleSegment)
	mux.HandleFunc("/healthz", c.handleHealthz)
	mux.HandleFunc("/statz", c.handleStatz)
	mux.Handle("/metrics", c.reg.Handler())
	mux.HandleFunc("/v1/admin/rolling-restart", c.handleRollingRestart)
	return mux
}

func (c *Cluster) handleSegment(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	tier := TierInteractive
	switch r.Header.Get("X-Seneca-Tier") {
	case "", "interactive":
	case "batch":
		tier = TierBatch
	default:
		http.Error(w, "cluster: X-Seneca-Tier must be \"interactive\" or \"batch\"", http.StatusBadRequest)
		return
	}
	// Headers first: a request they condemn must not cost a body read of up
	// to MaxBodyBytes before its 400.
	ctx, cancel, ok := serve.ContextWithDeadlineHeader(r)
	if !ok {
		http.Error(w, fmt.Sprintf("cluster: bad %s header", serve.DeadlineHeader), http.StatusBadRequest)
		return
	}
	defer cancel()
	img, status, err := serve.DecodeSegmentRequest(w, r, c.inC, c.inH, c.inW, c.cfg.MaxBodyBytes)
	if err != nil {
		http.Error(w, err.Error(), status)
		return
	}
	res, err := c.Do(ctx, img, r.Header.Get("X-Seneca-Key"), tier)
	switch {
	case err == nil:
	case errors.Is(err, ErrSaturated), errors.Is(err, serve.ErrQueueFull):
		secs := int(c.RetryAfter().Seconds() + 0.999)
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	case errors.Is(err, ErrDraining), errors.Is(err, serve.ErrDraining):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		http.Error(w, err.Error(), http.StatusGatewayTimeout)
		return
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("X-Seneca-Mask-Shape", fmt.Sprintf("%dx%d", c.inH, c.inW))
	h.Set("X-Seneca-Batch", strconv.Itoa(res.Occupancy))
	h.Set("X-Seneca-Node", strconv.Itoa(res.Node))
	if res.Hedged {
		h.Set(serve.HedgedHeader, "1")
	}
	w.Write(res.Mask)
}

func (c *Cluster) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	h := c.Health()
	// Degraded still answers 200 — the fleet serves on its remaining
	// nodes. Draining or zero routable nodes is the 503 case.
	if h.Status == "draining" || h.Status == "unavailable" {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(h)
}

func (c *Cluster) handleStatz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(c.Stats())
}

func (c *Cluster) handleRollingRestart(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if c.Draining() {
		http.Error(w, ErrDraining.Error(), http.StatusServiceUnavailable)
		return
	}
	// The restart outlives the admin request: run it in the background
	// with its own generous deadline and report 202. Progress shows up in
	// /statz (rolling_restarts) and /healthz (degraded while a node is
	// out).
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		defer cancel()
		c.RollingRestart(ctx)
	}()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	fmt.Fprintf(w, "{\"status\":\"restarting\",\"nodes\":%d}\n", c.Health().Nodes)
}
