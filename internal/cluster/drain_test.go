package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"seneca/internal/fault"
	"seneca/internal/serve"
)

// TestClusterDrainCompletesInFlight covers cluster-wide graceful drain:
// requests dispatched before Shutdown complete with correct masks, new
// requests are refused with ErrDraining (503 on the wire), and /healthz
// flips to draining.
func TestClusterDrainCompletesInFlight(t *testing.T) {
	base := runtime.NumGoroutine()
	c, _, imgs := newTestCluster(t, Config{MinNodes: 2, MaxNodes: 2}, serve.Config{QueueDepth: 64})

	const inflight = 12
	var wg sync.WaitGroup
	errs := make([]error, inflight)
	results := make([]Result, inflight)
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.Do(context.Background(), imgs[i%len(imgs)], "", TierInteractive)
		}(i)
	}
	// Give the requests a moment to pass the front door, then drain.
	time.Sleep(20 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := c.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()

	for i := 0; i < inflight; i++ {
		if errs[i] != nil {
			t.Fatalf("in-flight request %d failed during drain: %v", i, errs[i])
		}
		if len(results[i].Mask) == 0 {
			t.Fatalf("in-flight request %d returned an empty mask", i)
		}
	}
	if _, err := c.Do(context.Background(), imgs[0], "", TierInteractive); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain Do: got %v, want ErrDraining", err)
	}

	srv := httptest.NewServer(c.Handler())
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	srv.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /healthz: HTTP %d, want 503 (%s)", resp.StatusCode, body)
	}
	var h Health
	if err := json.Unmarshal(body, &h); err != nil || h.Status != "draining" || !h.Draining {
		t.Fatalf("draining /healthz body: %s (err %v)", body, err)
	}
	settle(t, c, base)
}

// TestRollingRestartRoutesAround covers the rolling restart: with traffic
// flowing, every node is replaced in turn; in-flight requests complete,
// new requests route around the restarting node (zero client-visible
// errors on a 2-node fleet), /healthz reports degraded — not 503 — while
// a node is out, and every generation is replaced by the end.
func TestRollingRestartRoutesAround(t *testing.T) {
	base := runtime.NumGoroutine()
	c, _, imgs := newTestCluster(t, Config{MinNodes: 2, MaxNodes: 2}, serve.Config{QueueDepth: 64})

	// Hold each node in its draining state for a beat so the health poller
	// below deterministically observes the degraded window (a tiny fleet
	// drains its queue in single-digit milliseconds otherwise).
	fault.Enable("cluster.node.restart", fault.Stall(1, 50*time.Millisecond))
	t.Cleanup(fault.Reset)

	stop := make(chan struct{})
	clientErr := make(chan error, 64)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := c.Do(context.Background(), imgs[i%len(imgs)], "", TierInteractive); err != nil {
					select {
					case clientErr <- err:
					default:
					}
				}
			}
		}(i)
	}

	sawDegraded := make(chan struct{})
	go func() {
		defer close(sawDegraded)
		deadline := time.Now().Add(15 * time.Second)
		for time.Now().Before(deadline) {
			h := c.Health()
			if h.Status == "unavailable" {
				t.Error("healthz reported unavailable (503) during rolling restart of a 2-node fleet")
				return
			}
			if h.Status == "degraded" {
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
		t.Error("never observed a degraded /healthz during the rolling restart")
	}()

	gensBefore := nodeGens(c)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.RollingRestart(ctx); err != nil {
		t.Fatalf("rolling restart: %v", err)
	}
	<-sawDegraded
	close(stop)
	wg.Wait()

	select {
	case err := <-clientErr:
		t.Fatalf("client saw an error during rolling restart: %v", err)
	default:
	}
	gensAfter := nodeGens(c)
	for slot, gen := range gensAfter {
		if before, ok := gensBefore[slot]; ok && gen == before {
			t.Fatalf("slot %d was not replaced (gen %d before and after)", slot, gen)
		}
	}
	if got := c.Stats().Restarts; got != 2 {
		t.Fatalf("rolling_restarts = %d, want 2", got)
	}
	// The fleet is whole again: healthy, not degraded.
	if h := c.Health(); h.Status != "ok" || h.Active != 2 {
		t.Fatalf("post-restart health: %+v", h)
	}
	settle(t, c, base)
}

// TestShutdownOwnsAStalledRestart: Shutdown runs while a rolling restart is
// held at "cluster.node.restart", and the stall ends after the fleet has
// drained. The restart must then not install a replacement — nothing would
// ever stop it — so when it returns no replica the fleet built is left
// serving, and once Shutdown is done nothing the fleet started is left
// running.
func TestShutdownOwnsAStalledRestart(t *testing.T) {
	base := runtime.NumGoroutine()
	prog, _ := testProgram(t, 32, 1)
	factory, _ := testFactory(t, prog, serve.Config{Threads: 2})
	var mu sync.Mutex
	var built []*serve.Server
	c, err := New(func() (*serve.Server, error) {
		srv, err := factory()
		if err == nil {
			mu.Lock()
			built = append(built, srv)
			mu.Unlock()
		}
		return srv, err
	}, Config{MinNodes: 2, MaxNodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable("cluster.node.restart", fault.Stall(1, 200*time.Millisecond))
	t.Cleanup(fault.Reset)

	rolled := make(chan error, 1)
	go func() { rolled <- c.RollingRestart(context.Background()) }()
	for deadline := time.Now().Add(10 * time.Second); fault.Injected("cluster.node.restart") == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the rolling restart never reached its stall")
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := c.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-rolled; !errors.Is(err, ErrDraining) {
		t.Fatalf("rolling restart across Shutdown: %v, want ErrDraining", err)
	}
	mu.Lock()
	for i, srv := range built {
		if !srv.Draining() {
			t.Errorf("replica %d of %d still serving after Shutdown and the restart returned", i+1, len(built))
		}
	}
	mu.Unlock()
	settle(t, c, base)
}

// TestRollingRestartSingleNodeSheds pins the 1-node edge: while the only
// node is down, requests shed (429/503 class errors, never hangs or wrong
// results), and service resumes when the replacement lands.
func TestRollingRestartSingleNodeSheds(t *testing.T) {
	c, _, imgs := newTestCluster(t, Config{MinNodes: 1, MaxNodes: 1, MaxAttempts: 1}, serve.Config{QueueDepth: 8})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- c.RollingRestart(ctx) }()

	// Whatever happens mid-restart must be a clean shed or a success —
	// never a hang past the deadline or a malformed mask.
	for i := 0; i < 20; i++ {
		rctx, rcancel := context.WithTimeout(context.Background(), 5*time.Second)
		res, err := c.Do(rctx, imgs[i%len(imgs)], "", TierInteractive)
		rcancel()
		if err == nil && len(res.Mask) == 0 {
			t.Fatal("empty mask from a successful submit mid-restart")
		}
		if err != nil && !errors.Is(err, ErrSaturated) && !errors.Is(err, serve.ErrDraining) && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("mid-restart error class: %v", err)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("rolling restart: %v", err)
	}
	if _, err := c.Do(context.Background(), imgs[0], "", TierInteractive); err != nil {
		t.Fatalf("submit after restart: %v", err)
	}
}

// TestHealthzDegradedVs503OverHTTP drives the distinction end-to-end over
// the wire: a full fleet answers 200 ok, a fleet with an ejected node
// answers 200 degraded, a fleet with zero routable nodes answers 503.
func TestHealthzDegradedVs503OverHTTP(t *testing.T) {
	c, _, _ := newTestCluster(t, Config{MinNodes: 2, MaxNodes: 2, EjectCooldown: time.Hour}, serve.Config{})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	get := func() (int, Health) {
		resp, err := http.Get(srv.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h Health
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, h
	}

	if code, h := get(); code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthy fleet: HTTP %d %+v", code, h)
	}

	// Eject node 0 by hand: degraded, still 200.
	c.mu.RLock()
	n0, n1 := c.slots[0], c.slots[1]
	c.mu.RUnlock()
	for i := 0; i < c.cfg.FailThreshold; i++ {
		c.nodeFailure(n0)
	}
	if code, h := get(); code != http.StatusOK || h.Status != "degraded" {
		t.Fatalf("one ejected node: HTTP %d %+v, want 200 degraded", code, h)
	}

	// Eject the second too: zero routable nodes → 503.
	for i := 0; i < c.cfg.FailThreshold; i++ {
		c.nodeFailure(n1)
	}
	if code, h := get(); code != http.StatusServiceUnavailable || h.Status != "unavailable" {
		t.Fatalf("zero routable nodes: HTTP %d %+v, want 503 unavailable", code, h)
	}
}

// TestSegmentOverHTTPWithTierAndNode exercises the front door wire format:
// an octet-stream body comes back as a mask with the serving node's slot
// in X-Seneca-Node, and a bad tier is a 400.
func TestSegmentOverHTTPWithTierAndNode(t *testing.T) {
	c, prog, imgs := newTestCluster(t, Config{MinNodes: 2, MaxNodes: 2}, serve.Config{})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	body := serve.EncodeInput(imgs[0].Data)
	req, _ := http.NewRequest(http.MethodPost, srv.URL+"/v1/segment", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set("X-Seneca-Tier", "batch")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	mask, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("segment: HTTP %d (%s)", resp.StatusCode, mask)
	}
	g := prog.Graph
	if len(mask) != g.InH*g.InW {
		t.Fatalf("mask is %d bytes, want %d", len(mask), g.InH*g.InW)
	}
	if node := resp.Header.Get("X-Seneca-Node"); node != "0" && node != "1" {
		t.Fatalf("X-Seneca-Node = %q, want a slot id", node)
	}

	req, _ = http.NewRequest(http.MethodPost, srv.URL+"/v1/segment", bytes.NewReader(body))
	req.Header.Set("X-Seneca-Tier", "bogus")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus tier: HTTP %d, want 400", resp.StatusCode)
	}
}

func nodeGens(c *Cluster) map[int]int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	gens := make(map[int]int)
	for _, n := range c.slots {
		if n != nil {
			gens[n.slot] = n.gen
		}
	}
	return gens
}

// untouchedBody is a request body that fails the test the moment anyone
// reads it.
type untouchedBody struct{ t *testing.T }

func (b untouchedBody) Read([]byte) (int, error) {
	b.t.Error("request body was read before the headers were rejected")
	return 0, io.EOF
}

// TestBadHeadersRejectedBeforeBodyRead: the fleet front door refuses a bad
// tier or a malformed deadline from the headers alone, without reading a
// body that may be MaxBodyBytes long, and answers a request that reaches the
// fleet through serve's error ladder — saturated 429 with Retry-After,
// draining 503, lapsed deadline 504, a node error past its redispatch budget
// 500 — or with the mask and the fleet's headers.
func TestBadHeadersRejectedBeforeBodyRead(t *testing.T) {
	c, _, imgs := newTestCluster(t, Config{MinNodes: 1, MaxNodes: 1, MaxAttempts: 1}, serve.Config{MaxBatch: 1, MaxRedispatch: 1})
	t.Cleanup(fault.Reset)
	c.mu.RLock()
	n := c.slots[0]
	c.mu.RUnlock()
	body := serve.EncodeInput(imgs[0].Data)
	lapsed, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	h := c.Handler()
	for _, tc := range []struct {
		name          string
		header, value string
		body          []byte // nil: a body nobody may read
		ctx           context.Context
		prep          func()
		want          int
		headers       map[string]string
	}{
		{name: "bad tier", header: "X-Seneca-Tier", value: "bogus", want: http.StatusBadRequest},
		{name: "malformed deadline", header: serve.DeadlineHeader, value: "soon", want: http.StatusBadRequest},
		{name: "success", body: body, want: http.StatusOK, headers: map[string]string{
			"Content-Type": "application/octet-stream", "X-Seneca-Mask-Shape": "32x32", "X-Seneca-Batch": "1",
			"X-Seneca-Node": "0", serve.HedgedHeader: "",
		}},
		{name: "batch tier", header: "X-Seneca-Tier", value: "batch", body: body, want: http.StatusOK},
		{name: "lapsed deadline", body: body, ctx: lapsed, want: http.StatusGatewayTimeout},
		{name: "node error", body: body, want: http.StatusInternalServerError,
			prep: func() { fault.Enable("backend.execute.dpu-sim", fault.Fault{Count: 2}) }},
		// The only node leaving routing leaves nothing to admit the request.
		{name: "fleet saturated", body: body, prep: func() { n.draining.Store(true) }, want: http.StatusTooManyRequests},
		{name: "draining", body: body, prep: func() { c.Shutdown(context.Background()) }, want: http.StatusServiceUnavailable},
	} {
		if tc.prep != nil {
			tc.prep()
		}
		var r *http.Request
		if tc.body == nil {
			r = httptest.NewRequest(http.MethodPost, "/v1/segment", untouchedBody{t})
		} else {
			r = httptest.NewRequest(http.MethodPost, "/v1/segment", bytes.NewReader(tc.body))
		}
		r.Header.Set("Content-Type", "application/octet-stream")
		if tc.header != "" {
			r.Header.Set(tc.header, tc.value)
		}
		if tc.ctx != nil {
			r = r.WithContext(tc.ctx)
		}
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != tc.want {
			t.Errorf("%s: HTTP %d (%s), want %d", tc.name, w.Code, strings.TrimSpace(w.Body.String()), tc.want)
		}
		for k, v := range tc.headers {
			if got := w.Header().Get(k); got != v {
				t.Errorf("%s: %s = %q, want %q", tc.name, k, got, v)
			}
		}
		if secs, err := strconv.Atoi(w.Header().Get("Retry-After")); (tc.want == http.StatusTooManyRequests) != (err == nil && secs >= 1) {
			t.Errorf("%s: Retry-After %q on HTTP %d", tc.name, w.Header().Get("Retry-After"), w.Code)
		}
	}
}
