package serve

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"seneca/internal/fault"
	"seneca/internal/obs"
)

// TestChaosRunnerFaultsRecover is the tentpole resilience test: with a
// seeded fault program killing and stalling runners mid-load, a closed-loop
// client population must see zero failed and zero incorrect responses —
// every mask bit-identical to a fault-free run — while the pool trips
// breakers, evicts the broken runners, probes them half-open, and returns
// to full health.
func TestChaosRunnerFaultsRecover(t *testing.T) {
	s, _, prog, imgs := newTestServer(t, Config{
		Runners:  2,
		Threads:  2,
		MaxBatch: 4,
		// Aggressive self-healing so the whole cycle fits in a short test.
		// The watchdog must clear a legitimate batch even under the race
		// detector's ~20× slowdown, so 2s rather than something tighter;
		// the injected stalls sleep 8s, far past it either way.
		BreakerThreshold: 2,
		BreakerCooldown:  50 * time.Millisecond,
		WatchdogTimeout:  2 * time.Second,
		// Worst case one job rides every injected failure (6 errors + 2
		// stalls = 8); the budget must exceed that for zero client-visible
		// errors.
		MaxRedispatch: 12,
		QueueDepth:    256,
	})

	// Fault-free goldens, computed before arming the registry.
	goldens := make([][]uint8, len(imgs))
	for i, img := range imgs {
		want, err := prog.Run(img)
		if err != nil {
			t.Fatal(err)
		}
		goldens[i] = want
	}

	// Count-capped faults keep the injection totals deterministic under
	// concurrent dispatch: exactly 6 batch errors and 2 stalls, then the
	// fabric heals.
	errorsBefore, stallsBefore := faultInjectedTotal(t, "backend.execute.dpu-sim"), faultInjectedTotal(t, "backend.execute")
	fault.Seed(42)
	fault.Enable("backend.execute.dpu-sim", fault.Fault{Prob: 1, Count: 6})
	fault.Enable("backend.execute", fault.Fault{Prob: 1, Count: 2, Delay: 8 * time.Second})
	t.Cleanup(fault.Reset)

	const clients, perClient = 8, 15
	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				idx := (c*perClient + k) % len(imgs)
				mask, err := s.Submit(context.Background(), imgs[idx])
				if err != nil {
					errs <- err
					continue
				}
				if !bytes.Equal(mask, goldens[idx]) {
					t.Errorf("client %d req %d: mask diverges from fault-free golden", c, k)
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("client-visible error despite redispatch budget: %v", err)
	}

	if got := fault.Injected("backend.execute.dpu-sim") + fault.Injected("backend.execute"); got != 8 {
		t.Errorf("injected %d faults, programmed 8", got)
	}
	st := s.Stats()
	if st.Evictions < 1 {
		t.Errorf("no runner was evicted (evictions=%d); breaker never tripped", st.Evictions)
	}
	if st.Probes < 1 {
		t.Errorf("no half-open probe ran (probes=%d); breaker never cycled", st.Probes)
	}
	if st.Redispatches < 1 {
		t.Errorf("no job was re-dispatched (redispatches=%d)", st.Redispatches)
	}
	if st.WatchdogTimeouts < 1 {
		t.Errorf("watchdog never reclaimed a stalled batch (timeouts=%d)", st.WatchdogTimeouts)
	}

	// The pool must return to full health: every breaker closed. Loaded
	// runners may still be mid-probe right after the last response, so poll.
	deadline := time.Now().Add(20 * time.Second)
	for {
		if h := s.Health(); h.Healthy == h.Runners && !h.Degraded {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never recovered: %+v", s.Health())
		}
		// One cheap request keeps traffic flowing so half-open probes run.
		s.Submit(context.Background(), imgs[0])
		time.Sleep(10 * time.Millisecond)
	}

	// The whole story must be visible on /metrics.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, series := range []string{
		"seneca_serve_runner_evictions_total",
		"seneca_serve_redispatches_total",
		"seneca_serve_watchdog_timeouts_total",
		"seneca_serve_breaker_probes_total",
		"seneca_serve_healthy_runners 2",
		"seneca_serve_breaker_state",
	} {
		if !bytes.Contains(body, []byte(series)) {
			t.Errorf("/metrics missing %q", series)
		}
	}

	// The injected-fault counter reports into obs.Default (the registry the
	// cmd binaries merge everything into), labelled per point.
	if got := faultInjectedTotal(t, "backend.execute.dpu-sim") - errorsBefore; got != 6 {
		t.Errorf("obs.Default counted %d injected backend.execute.dpu-sim faults, programmed 6", got)
	}
	if got := faultInjectedTotal(t, "backend.execute") - stallsBefore; got != 2 {
		t.Errorf("obs.Default counted %d injected backend.execute faults, programmed 2", got)
	}

	// And on /healthz, which must report full (non-degraded) health again.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Contains(hb, []byte(`"status":"ok"`)) {
		t.Errorf("healthz after recovery: %d %s", resp.StatusCode, hb)
	}
}

// faultInjectedTotal scrapes one point's seneca_fault_injected_total from
// obs.Default. That registry is the process's: every test that injects a fault
// and every -count repetition adds to it, so callers compare a scrape before
// with a scrape after.
func faultInjectedTotal(t *testing.T, point string) int {
	t.Helper()
	series := `seneca_fault_injected_total{point="` + point + `"} `
	for _, line := range strings.Split(obs.Default.Expose(), "\n") {
		if v, ok := strings.CutPrefix(line, series); ok {
			n, err := strconv.Atoi(v)
			if err != nil {
				t.Fatalf("%s%s: %v", series, v, err)
			}
			return n
		}
	}
	return 0 // the series appears with the point's first injection
}

// TestChaosDegradedHealthz drives one runner's breaker open and checks the
// health endpoint reports "degraded" with the healthy-runner count while
// the other runner keeps serving correct responses.
func TestChaosDegradedHealthz(t *testing.T) {
	s, _, prog, imgs := newTestServer(t, Config{
		Runners:          2,
		Threads:          2,
		BreakerThreshold: 1,
		// A cooldown much longer than the test keeps the breaker open (no
		// half-open probe), so the degraded window is easy to observe.
		BreakerCooldown: time.Hour,
		MaxRedispatch:   4,
	})
	golden, err := prog.Run(imgs[0])
	if err != nil {
		t.Fatal(err)
	}
	fault.Enable("backend.execute.dpu-sim", fault.Fault{Prob: 1, Count: 1})
	t.Cleanup(fault.Reset)

	mask, err := s.Submit(context.Background(), imgs[0])
	if err != nil {
		t.Fatalf("submit during single-runner failure: %v", err)
	}
	if !bytes.Equal(mask, golden) {
		t.Error("mask diverges from golden after redispatch")
	}
	h := s.Health()
	if h.Healthy != 1 || !h.Degraded {
		t.Fatalf("health after one tripped breaker: %+v", h)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("degraded pool must stay 200 (one runner is healthy), got %d", resp.StatusCode)
	}
	for _, want := range []string{`"status":"degraded"`, `"healthy_runners":1`, `"degraded":true`} {
		if !bytes.Contains(body, []byte(want)) {
			t.Errorf("healthz %s missing %q", body, want)
		}
	}
}
