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
	"strconv"
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
// goroutines while a burst goes through a pool whose cpu-int8 runs fail at
// random: under the race detector every reader of the rows meets every writer
// of them — completions, breaker trips, evictions, redispatches — every /statz
// sample shows a non-negative queue depth and no more outcomes than
// admissions, and at rest every admitted request is accounted for. The fault
// sits on the runner the router prefers — cpu-int8 prices this model's batches
// below dpu-sim's, so an idle pool sends them all there — and seed 2's draws
// start XXXX, so the first batch fails whatever the interleaving.
func TestScrapeUnderFaultedLoad(t *testing.T) {
	s, _, _, imgs := newTestServer(t, Config{
		Backends: "dpu-sim:2,cpu-int8", Threads: 2, MaxBatch: 4, QueueDepth: 128,
		BreakerThreshold: 2, BreakerCooldown: 5 * time.Millisecond, MaxRedispatch: 8,
	})
	t.Cleanup(fault.Reset)
	fault.Seed(2)
	fault.Enable("backend.execute.cpu-int8", fault.Fault{Prob: 0.3})

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
				// The dpu-sim runners never fail, so the pool always has a healthy one.
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
				if st.QueueDepth < 0 || st.Completed+st.Expired+st.Failed > st.Accepted || st.P50LatencyMS > st.P99LatencyMS {
					t.Errorf("/statz sample: queue_depth %d, completed %d + expired %d + failed %d vs accepted %d, p50 %v ms vs p99 %v ms",
						st.QueueDepth, st.Completed, st.Expired, st.Failed, st.Accepted, st.P50LatencyMS, st.P99LatencyMS)
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
	if st := s.Stats(); st.Accepted != 80 || fault.Injected("backend.execute.cpu-int8") == 0 {
		t.Errorf("accepted %d of 80 requests, %d run errors injected", st.Accepted, fault.Injected("backend.execute.cpu-int8"))
	}
}

// TestStatzQuantilesAreTheMetricsHistogram: /statz reads p50/p99 from the
// request-latency histogram /metrics exposes, so replaying the exposed
// buckets into a fresh histogram gives /statz's quantiles bit for bit.
func TestStatzQuantilesAreTheMetricsHistogram(t *testing.T) {
	ts, _, data, _ := startHTTP(t, Config{Threads: 2, MaxBatch: 4})
	body := EncodeInput(data)
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 8; k++ {
				resp, err := http.Post(ts.URL+"/v1/segment", "application/octet-stream", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("segment: HTTP %d", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()

	fetch := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	var st Stats
	if err := json.Unmarshal(fetch("/statz"), &st); err != nil {
		t.Fatal(err)
	}
	// Each bucket's own observations go in at its upper bound; the +Inf
	// bucket's past the last one.
	var bounds []float64
	var cum []uint64
	for _, line := range strings.Split(string(fetch("/metrics")), "\n") {
		rest, ok := strings.CutPrefix(line, `seneca_serve_request_latency_seconds_bucket{le="`)
		if !ok {
			continue
		}
		le, count, _ := strings.Cut(rest, `"} `)
		n, err := strconv.ParseUint(count, 10, 64)
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		cum = append(cum, n)
		if le != "+Inf" {
			b, err := strconv.ParseFloat(le, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			bounds = append(bounds, b)
		}
	}
	if len(bounds) != len(obs.DefBuckets) || len(cum) != len(bounds)+1 {
		t.Fatalf("/metrics has %d finite latency buckets of %d, want obs.DefBuckets' %d", len(bounds), len(cum), len(obs.DefBuckets))
	}
	h := obs.NewRegistry().Histogram("replay_seconds", "", bounds)
	var seen uint64
	for i, n := range cum {
		v := math.Inf(1)
		if i < len(bounds) {
			v = bounds[i]
		}
		for ; seen < n; seen++ {
			h.Observe(v)
		}
	}
	if seen != st.Completed || seen != 32 {
		t.Fatalf("/metrics counts %d requests, /statz %d completed, 32 sent", seen, st.Completed)
	}
	q := h.Quantiles(0.50, 0.99)
	if p50, p99 := 1e3*q[0], 1e3*q[1]; st.P50LatencyMS != p50 || st.P99LatencyMS != p99 || p50 <= 0 {
		t.Fatalf("/statz p50 %v ms, p99 %v ms; the /metrics buckets give %v and %v", st.P50LatencyMS, st.P99LatencyMS, p50, p99)
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
