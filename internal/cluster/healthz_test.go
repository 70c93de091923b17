package cluster

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"seneca/internal/dpu"
	"seneca/internal/fault"
	"seneca/internal/serve"
	"seneca/internal/xmodel"
)

// twoVariants is a minimal serve.VariantProvider: the test program compiled
// under two names.
type twoVariants map[string]*xmodel.Program

func (v twoVariants) VariantNames() []string              { return []string{"fast", "full"} }
func (v twoVariants) Program(name string) *xmodel.Program { return v[name] }

// TestHealthzBodies pins GET /healthz on all three front doors — Server,
// VariantFront and Cluster — in each state a door can report: status code,
// Content-Type and the exact body bytes. Each door walks ok → degraded →
// unavailable → draining; a runner pool degrades by tripping one breaker
// after another (threshold 1, hour-long cooldown) with one injected run
// error each, a fleet by ejecting one node after another.
func TestHealthzBodies(t *testing.T) {
	t.Cleanup(fault.Reset)
	prog, imgs := testProgram(t, 32, 1)
	nodeCfg := serve.Config{Runners: 2, Threads: 2, BreakerThreshold: 1, BreakerCooldown: time.Hour}

	get := func(t *testing.T, h http.Handler) (int, string) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("Content-Type %q", ct)
		}
		return rec.Code, rec.Body.String()
	}
	type state struct {
		name   string
		enter  func(t *testing.T)
		status int
		body   string
	}
	walk := func(t *testing.T, h http.Handler, states []state) {
		for _, st := range states {
			st.enter(t)
			if code, body := get(t, h); code != st.status || body != st.body {
				t.Errorf("%s: HTTP %d %q\nwant HTTP %d %q", st.name, code, body, st.status, st.body)
			}
		}
	}
	// trip fails exactly one batch on s: one runner's breaker opens. The
	// request rides on to the other runner while there is one; on the last
	// runner it is left with nowhere to go and is cancelled once the trip
	// shows.
	trip := func(t *testing.T, s *serve.Server) {
		t.Helper()
		healthy := s.Health().Healthy
		fault.Enable("backend.execute.dpu-sim", fault.Fault{Count: 1})
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		done := make(chan error, 1)
		go func() { _, err := s.Submit(ctx, imgs[0]); done <- err }()
		deadline := time.Now().Add(10 * time.Second)
		for s.Health().Healthy != healthy-1 {
			if time.Now().After(deadline) {
				t.Fatalf("no breaker tripped: %+v", s.Health())
			}
			time.Sleep(time.Millisecond)
		}
		if healthy > 1 {
			if err := <-done; err != nil {
				t.Fatalf("request behind the tripped runner: %v", err)
			}
		}
	}
	shutdown := func(stop func(context.Context) error) func(*testing.T) {
		return func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := stop(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	nothing := func(*testing.T) {}

	t.Run("Server", func(t *testing.T) {
		s, err := serve.New(dpu.New(dpu.ZCU104B4096()), prog, nodeCfg)
		if err != nil {
			t.Fatal(err)
		}
		walk(t, s.Handler(), []state{
			{"ok", nothing, http.StatusOK,
				`{"status":"ok","draining":false,"model":"tiny","runners":2,"healthy_runners":2,"degraded":false,"backends":["dpu-sim","dpu-sim"]}` + "\n"},
			{"degraded", func(t *testing.T) { trip(t, s) }, http.StatusOK,
				`{"status":"degraded","draining":false,"model":"tiny","runners":2,"healthy_runners":1,"degraded":true,"backends":["dpu-sim","dpu-sim"]}` + "\n"},
			{"unavailable", func(t *testing.T) { trip(t, s) }, http.StatusServiceUnavailable,
				`{"status":"degraded","draining":false,"model":"tiny","runners":2,"healthy_runners":0,"degraded":true,"backends":["dpu-sim","dpu-sim"]}` + "\n"},
			{"draining", shutdown(s.Shutdown), http.StatusServiceUnavailable,
				`{"status":"draining","draining":true,"model":"tiny"}` + "\n"},
		})
	})

	t.Run("VariantFront", func(t *testing.T) {
		f, err := serve.NewVariantFront(dpu.New(dpu.ZCU104B4096()), twoVariants{"fast": prog, "full": prog},
			serve.TierConfig{Default: "full"}, nodeCfg)
		if err != nil {
			t.Fatal(err)
		}
		fast := f.Server("fast")
		walk(t, f.Handler(), []state{
			{"ok", nothing, http.StatusOK,
				`{"fast":{"status":"ok","draining":false,"healthy_runners":2},"full":{"status":"ok","draining":false,"healthy_runners":2}}` + "\n"},
			{"degraded", func(t *testing.T) { trip(t, fast) }, http.StatusOK,
				`{"fast":{"status":"degraded","draining":false,"healthy_runners":1},"full":{"status":"ok","draining":false,"healthy_runners":2}}` + "\n"},
			{"unavailable", func(t *testing.T) { trip(t, fast) }, http.StatusOK,
				`{"fast":{"status":"unhealthy","draining":false,"healthy_runners":0},"full":{"status":"ok","draining":false,"healthy_runners":2}}` + "\n"},
			{"draining", shutdown(f.Shutdown), http.StatusServiceUnavailable,
				`{"fast":{"status":"draining","draining":true,"healthy_runners":0},"full":{"status":"draining","draining":true,"healthy_runners":2}}` + "\n"},
		})
	})

	t.Run("Cluster", func(t *testing.T) {
		c, _, _ := newTestCluster(t, Config{MinNodes: 2, MaxNodes: 2, EjectCooldown: time.Hour}, serve.Config{})
		c.mu.RLock()
		n0, n1 := c.slots[0], c.slots[1]
		c.mu.RUnlock()
		eject := func(n *node) func(*testing.T) {
			return func(*testing.T) {
				for i := 0; i < c.cfg.FailThreshold; i++ {
					c.nodeFailure(n)
				}
			}
		}
		walk(t, c.Handler(), []state{
			{"ok", nothing, http.StatusOK,
				`{"status":"ok","draining":false,"model":"tiny","nodes":2,"active_nodes":2,"node_states":["active","active"]}` + "\n"},
			{"degraded", eject(n0), http.StatusOK,
				`{"status":"degraded","draining":false,"model":"tiny","nodes":2,"active_nodes":1,"node_states":["ejected","active"]}` + "\n"},
			{"unavailable", eject(n1), http.StatusServiceUnavailable,
				`{"status":"unavailable","draining":false,"model":"tiny","nodes":2,"active_nodes":0,"node_states":["ejected","ejected"]}` + "\n"},
			{"draining", shutdown(c.Shutdown), http.StatusServiceUnavailable,
				`{"status":"draining","draining":true,"model":"tiny","nodes":2,"active_nodes":0,"node_states":["ejected","ejected"]}` + "\n"},
		})
	})
}
