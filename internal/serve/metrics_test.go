package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"seneca/internal/fault"
	"seneca/internal/obs"
	"seneca/internal/quant"
)

// TestMetricsEndpoint serves traffic and checks GET /metrics exposes the
// acceptance-critical series — queue depth, the latency histogram, batch
// occupancy and the simulated FPS/W estimate — in Prometheus text format.
func TestMetricsEndpoint(t *testing.T) {
	ts, s, data, _ := startHTTP(t, Config{Threads: 2, MaxBatch: 4})

	// Serve a few requests so every series has data.
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/v1/segment", "application/octet-stream", bytes.NewReader(EncodeInput(data)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("segment: HTTP %d", resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)

	for _, want := range []string{
		"# TYPE seneca_serve_queue_depth gauge",
		"seneca_serve_queue_depth 0",
		"seneca_serve_queue_capacity",
		"# TYPE seneca_serve_requests_total counter",
		`seneca_serve_requests_total{outcome="completed"} 3`,
		`seneca_serve_requests_total{outcome="rejected"} 0`,
		"# TYPE seneca_serve_request_latency_seconds histogram",
		"seneca_serve_request_latency_seconds_count 3",
		"# TYPE seneca_serve_batch_occupancy histogram",
		"# TYPE seneca_serve_batch_window_seconds gauge",
		"# TYPE seneca_serve_lanes gauge",
		// Two threads on the dual-core board model: two lanes, cores permitting.
		fmt.Sprintf(`seneca_serve_lanes{backend="dpu-sim"} %d`, min(2, runtime.GOMAXPROCS(0))),
		`seneca_serve_lanes_busy{backend="dpu-sim"} 0`,
		"seneca_serve_sim_fps ",
		"seneca_serve_sim_watts ",
		"seneca_serve_sim_fps_per_watt ",
		`seneca_serve_info{device="DPUCZDX8G-B4096 ×2 @ ZCU104",model="tiny"} 1`,
		"# TYPE seneca_quant_kernel gauge",
		`seneca_quant_kernel{isa="` + quant.KernelISA() + `"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// /statz and /metrics read the formation window from one source, and it
	// follows the service estimate the three served batches left behind.
	st := s.Stats()
	var windowSec float64
	if _, line, ok := strings.Cut(body, "\nseneca_serve_batch_window_seconds "); ok {
		fmt.Sscan(line, &windowSec)
	}
	if math.Abs(windowSec*1e3-st.BatchWindowMS) > 1e-9 {
		t.Errorf("/metrics window %v s, /statz batch_window_ms %v: one source, two answers", windowSec, st.BatchWindowMS)
	}
	want := math.Min(st.MaxDelayMS, st.ServiceEWMAMS/8)
	if want < 1 {
		want = 0 // under the runtime's timer resolution no timer is armed
	}
	if st.ServiceEWMAMS <= 0 || math.Abs(st.BatchWindowMS-want) > 1e-6 {
		t.Errorf("batch_window_ms = %v with service_ewma_ms = %v, want min(max_delay_ms, ewma/8), 0 below 1 ms = %v",
			st.BatchWindowMS, st.ServiceEWMAMS, want)
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", body)
	}

	// Basic text-format validity: every non-comment line is "name[{labels}] value".
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.LastIndex(line, " "); i <= 0 || i == len(line)-1 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

// TestScrapeUnderFaultedLoad reads /statz, /metrics and /healthz from several
// goroutines while a burst goes through a pool whose dpu-sim runs fail at
// random: under the race detector every reader of the rows meets every writer
// of them — completions, breaker trips, evictions, redispatches — every /statz
// sample shows a non-negative queue depth and no more outcomes than
// admissions, and at rest every admitted request is accounted for.
func TestScrapeUnderFaultedLoad(t *testing.T) {
	s, _, _, imgs := newTestServer(t, Config{
		Backends: "dpu-sim:2,cpu-int8", Threads: 2, MaxBatch: 4, QueueDepth: 128,
		BreakerThreshold: 2, BreakerCooldown: 5 * time.Millisecond, MaxRedispatch: 8,
	})
	t.Cleanup(fault.Reset)
	fault.Seed(7)
	fault.Enable("backend.execute.dpu-sim", fault.Fault{Prob: 0.3})

	h := s.Handler()
	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for _, path := range []string{"/statz", "/metrics", "/healthz", "/statz", "/metrics", "/healthz"} {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				// cpu-int8 never fails, so the pool always has a healthy runner.
				if rec.Code != http.StatusOK {
					t.Errorf("GET %s: HTTP %d %s", path, rec.Code, rec.Body)
					return
				}
				if path != "/statz" {
					continue
				}
				var st Stats
				if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
					t.Errorf("GET /statz: %v", err)
					return
				}
				if st.QueueDepth < 0 || st.Completed+st.Expired+st.Failed > st.Accepted {
					t.Errorf("/statz sample: queue_depth %d, completed %d + expired %d + failed %d > accepted %d",
						st.QueueDepth, st.Completed, st.Expired, st.Failed, st.Accepted)
					return
				}
			}
		}()
	}
	var clients sync.WaitGroup
	for c := 0; c < 8; c++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for k := 0; k < 10; k++ {
				s.Submit(context.Background(), imgs[(c+k)%len(imgs)]) // a spent redispatch budget is an outcome too
			}
		}()
	}
	clients.Wait()
	close(stop)
	scrapers.Wait()

	waitFor(t, 5*time.Second, "lanes still held at rest", func() bool { return s.Stats().LanesBusy == 0 })
	checkBooks(t, s)
	if st := s.Stats(); st.Accepted != 80 || fault.Injected("backend.execute.dpu-sim") == 0 {
		t.Errorf("accepted %d of 80 requests, %d run errors injected", st.Accepted, fault.Injected("backend.execute.dpu-sim"))
	}
}

// TestMetricsSharedRegistry checks a server wired into a caller-supplied
// registry reports there, alongside pre-existing series.
func TestMetricsSharedRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("seneca_external_total", "pre-existing series").Inc()
	s, _, _, imgs := newTestServer(t, Config{Threads: 2, Metrics: reg})
	if s.Metrics() != reg {
		t.Fatal("server must adopt the supplied registry")
	}
	if _, err := s.Submit(t.Context(), imgs[0]); err != nil {
		t.Fatal(err)
	}
	out := reg.Expose()
	for _, want := range []string{
		"seneca_external_total 1",
		`seneca_serve_requests_total{outcome="completed"} 1`,
		"seneca_serve_batch_occupancy_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("shared registry missing %q:\n%s", want, out)
		}
	}
}
