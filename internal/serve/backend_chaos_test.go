package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"seneca/internal/energy"
	"seneca/internal/fault"
)

// TestChaosBackendKilledMidBurstFailsOver kills one backend kind mid-burst
// and requires the heterogeneous pool to fail over with zero wrong and zero
// lost responses: every mask stays bit-identical to the fault-free golden
// while the dpu-sim breakers trip and the surviving cpu-int8 / gpu-sim
// backends absorb the traffic. Afterwards nothing the server started
// outlives its Shutdown.
func TestChaosBackendKilledMidBurstFailsOver(t *testing.T) {
	base := runtime.NumGoroutine()
	s, _, prog, imgs := newTestServer(t, Config{
		Backends: "dpu-sim:2,cpu-int8,gpu-sim",
		Threads:  2,
		MaxBatch: 4,
		// One failure trips a breaker, and the hour-long cooldown keeps the
		// killed backend out of the pool for the rest of the test: the
		// failover must come from the other kinds, not a lucky probe.
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
		MaxRedispatch:    8,
		QueueDepth:       256,
	})

	// Fault-free goldens, computed before arming the registry. Placement
	// never changes masks (every backend executes the same INT8 artifact),
	// so one golden per image covers every routing outcome.
	goldens := make([][]uint8, len(imgs))
	for i, img := range imgs {
		want, err := prog.Run(img)
		if err != nil {
			t.Fatal(err)
		}
		goldens[i] = want
	}

	// Let a handful of batches land anywhere, then kill every dpu-sim
	// execution permanently (Count 0 = unlimited): the board "dies"
	// mid-burst and never comes back.
	fault.Seed(42)
	fault.Enable("backend.execute.dpu-sim", fault.Fault{Prob: 1, After: 5})
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
	lost := 0
	for err := range errs {
		lost++
		t.Errorf("client-visible error despite failover: %v", err)
	}

	st := s.Stats()
	if want := uint64(clients * perClient); st.Completed+uint64(lost) != want {
		t.Errorf("completed %d + errors %d != %d submitted: responses were lost", st.Completed, lost, want)
	}
	if st.Evictions < 1 {
		t.Errorf("no backend was evicted (evictions=%d); the kill never tripped a breaker", st.Evictions)
	}

	// The killed kind must be out of rotation and the survivors must have
	// carried the burst.
	perKind := map[string]BackendStats{}
	openDPUs := 0
	for _, bs := range st.Backends {
		agg := perKind[bs.Backend]
		agg.Frames += bs.Frames
		perKind[bs.Backend] = agg
		if bs.Backend == "dpu-sim" && bs.Breaker == "open" {
			openDPUs++
		}
	}
	if openDPUs == 0 {
		t.Errorf("no dpu-sim breaker is open after the kill: %+v", st.Backends)
	}
	if perKind["cpu-int8"].Frames+perKind["gpu-sim"].Frames == 0 {
		t.Errorf("surviving backends served no frames: %+v", st.Backends)
	}
	if h := s.Health(); h.Healthy == h.Runners {
		t.Errorf("pool reports full health with a killed backend: %+v", h)
	}
	settle(t, s, base, 0)
}

// TestChaosStalledExecuteSettles stalls two batches in backend.execute past
// the watchdog mid-burst. The watchdog abandons each, its jobs are answered
// bit-identically on a redispatch, and once the stall has elapsed the process
// is back at the goroutine count it had before the server was built: the
// abandoned batches' execute goroutines finish and exit, and nothing else the
// server started outlives Shutdown.
func TestChaosStalledExecuteSettles(t *testing.T) {
	const stall = 400 * time.Millisecond
	base := runtime.NumGoroutine()
	s, _, prog, imgs := newTestServer(t, Config{
		Runners:  2,
		Threads:  2,
		MaxBatch: 4,
		// Under the race detector a legitimate batch of this net takes a few
		// milliseconds, and the stall is four times the watchdog.
		WatchdogTimeout: 100 * time.Millisecond,
		BreakerCooldown: 20 * time.Millisecond,
		MaxRedispatch:   8,
		QueueDepth:      64,
	})
	goldens := make([][]uint8, len(imgs))
	for i, img := range imgs {
		want, err := prog.Run(img)
		if err != nil {
			t.Fatal(err)
		}
		goldens[i] = want
	}
	fault.Enable("backend.execute", fault.Fault{Prob: 1, Count: 2, Delay: stall})
	t.Cleanup(fault.Reset)

	const clients, perClient = 4, 6
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				idx := (c*perClient + k) % len(imgs)
				mask, err := s.Submit(context.Background(), imgs[idx])
				if err != nil {
					t.Errorf("client %d req %d: %v", c, k, err)
				} else if !bytes.Equal(mask, goldens[idx]) {
					t.Errorf("client %d req %d: mask diverges from fault-free golden", c, k)
				}
			}
		}(c)
	}
	wg.Wait()
	if st := s.Stats(); st.WatchdogTimeouts < 1 || st.Completed != clients*perClient {
		t.Errorf("watchdog timeouts %d, completed %d of %d", st.WatchdogTimeouts, st.Completed, clients*perClient)
	}
	settle(t, s, base, stall)
}

// settle shuts the server down and waits, up to the stall plus ten seconds,
// for the process to come back to base goroutines, counted before the server
// was built; it fails with every goroutine's stack if it does not.
func settle(t *testing.T, s *Server, base int, stall time.Duration) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	deadline := time.Now().Add(stall + 10*time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after Shutdown, %d before the server:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStatzPerBackendOccupancy pins the /statz contract: every pool slot
// reports a per-backend occupancy row (queue depth, in-flight batches and
// frames), the rows carry the pool's backend kinds, and the pool-wide
// totals equal the sums over the rows — both on the in-process snapshot
// and through the HTTP endpoint's JSON — as do the pool's simulated figures
// and every per-kind series on /metrics.
func TestStatzPerBackendOccupancy(t *testing.T) {
	s, _, _, imgs := newTestServer(t, Config{
		Backends:   "dpu-sim:2,cpu-int8,gpu-sim",
		Threads:    2,
		MaxBatch:   2,
		QueueDepth: 128,
	})

	const n = 48
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), imgs[c%len(imgs)]); err != nil {
				t.Errorf("submit: %v", err)
			}
		}(c)
	}
	// Snapshot while the burst is in flight: the sum invariants must hold
	// mid-load, not just at rest.
	for i := 0; i < 50; i++ {
		st := s.Stats()
		if len(st.Backends) != 4 {
			t.Fatalf("%d backend rows, want 4 (dpu-sim:2,cpu-int8,gpu-sim)", len(st.Backends))
		}
		var inflight, staged, frames, lanes, busy int
		for _, bs := range st.Backends {
			inflight += bs.InFlightBatches
			staged += bs.QueueDepth
			frames += bs.InFlightFrames
			lanes += bs.Lanes
			busy += bs.LanesBusy
			if bs.LanesBusy < 0 || bs.LanesBusy > bs.Lanes {
				t.Fatalf("worker %d (%s) holds %d of %d lanes", bs.Worker, bs.Backend, bs.LanesBusy, bs.Lanes)
			}
		}
		if st.InFlight != inflight || st.StagedFrames != staged || st.InFlightFrames != frames {
			t.Fatalf("pool totals (inflight=%d staged=%d frames=%d) != row sums (%d, %d, %d)",
				st.InFlight, st.StagedFrames, st.InFlightFrames, inflight, staged, frames)
		}
		if st.Lanes != lanes || st.LanesBusy != busy {
			t.Fatalf("pool lanes (%d, %d busy) != row sums (%d, %d)", st.Lanes, st.LanesBusy, lanes, busy)
		}
		time.Sleep(time.Millisecond)
	}
	wg.Wait()

	// At rest: occupancy drains to zero (a batch's lanes come back just
	// after its answers go out) and completed work is accounted per backend.
	waitFor(t, 5*time.Second, "lanes still held at rest", func() bool { return s.Stats().LanesBusy == 0 })
	st := s.Stats()
	var frames uint64
	kinds := map[string]int{}
	for _, bs := range st.Backends {
		frames += bs.Frames
		kinds[bs.Backend]++
		if bs.QueueDepth != 0 || bs.InFlightBatches != 0 || bs.InFlightFrames != 0 {
			t.Errorf("worker %d (%s) still occupied at rest: %+v", bs.Worker, bs.Backend, bs)
		}
	}
	if frames != st.Completed {
		t.Errorf("per-backend frames sum %d != completed %d", frames, st.Completed)
	}
	if kinds["dpu-sim"] != 2 || kinds["cpu-int8"] != 1 || kinds["gpu-sim"] != 1 {
		t.Errorf("pool composition %v, want dpu-sim:2 cpu-int8:1 gpu-sim:1", kinds)
	}

	// The pool's simulated figures are the rows' served reports summed and
	// priced once, and /metrics reads the same rows: each per-kind series is
	// the sum of that kind's rows, the pool's frames are the completed ones.
	var pool energy.Report
	perKind := map[string]BackendStats{}
	for _, bs := range st.Backends {
		pool = pool.Add(bs.served)
		k := perKind[bs.Backend]
		k.Lanes += bs.Lanes
		k.LanesBusy += bs.LanesBusy
		k.QueueDepth += bs.QueueDepth
		k.InFlightBatches += bs.InFlightBatches
		k.Dispatched += bs.Dispatched
		k.Batches += bs.Batches
		k.Frames += bs.Frames
		k.served = k.served.Add(bs.served)
		perKind[bs.Backend] = k
	}
	if st.SimFPS != pool.FPS() || st.SimWatts != pool.Watts() || st.SimFPSPerWatt != pool.EnergyEfficiency() {
		t.Errorf("pool sim (%v FPS, %v W, %v FPS/W) != summed rows' report (%v, %v, %v)",
			st.SimFPS, st.SimWatts, st.SimFPSPerWatt, pool.FPS(), pool.Watts(), pool.EnergyEfficiency())
	}
	_, exposition := get(s, "/metrics")
	if got := metricValue(t, exposition, "seneca_serve_frames_total"); got != float64(st.Completed) {
		t.Errorf("seneca_serve_frames_total %v != completed %d", got, st.Completed)
	}
	for kind, k := range perKind {
		for series, want := range map[string]float64{
			"seneca_backend_dispatch_total": float64(k.Dispatched),
			// No batch failed, so every finished batch was observed.
			"seneca_backend_batch_latency_seconds_count": float64(k.Batches),
			"seneca_backend_frames_total":                float64(k.Frames),
			"seneca_backend_inflight_batches":            float64(k.InFlightBatches),
			"seneca_backend_queued_frames":               float64(k.QueueDepth),
			"seneca_backend_sim_fps":                     k.served.FPS(),
			"seneca_backend_sim_fps_per_watt":            k.served.EnergyEfficiency(),
			"seneca_serve_lanes":                         float64(k.Lanes),
			"seneca_serve_lanes_busy":                    float64(k.LanesBusy),
		} {
			if got := metricValue(t, exposition, series+`{backend="`+kind+`"}`); got != want {
				t.Errorf("%s{backend=%q} = %v, rows sum to %v", series, kind, got, want)
			}
		}
	}

	// The same rows must appear on GET /statz.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var doc struct {
		InFlight       int              `json:"in_flight_batches"`
		StagedFrames   int              `json:"staged_frames"`
		InFlightFrames int              `json:"in_flight_frames"`
		Backends       []map[string]any `json:"backends"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("/statz JSON: %v\n%s", err, body)
	}
	if len(doc.Backends) != 4 {
		t.Fatalf("/statz has %d backend rows, want 4", len(doc.Backends))
	}
	var sumBatches, sumStaged, sumFrames int
	for _, row := range doc.Backends {
		for _, field := range []string{"backend", "breaker", "lanes", "lanes_busy", "queue_depth", "in_flight_batches", "in_flight_frames", "dispatched_batches", "frames"} {
			if _, ok := row[field]; !ok {
				t.Fatalf("/statz backend row missing %q: %v", field, row)
			}
		}
		sumBatches += int(row["in_flight_batches"].(float64))
		sumStaged += int(row["queue_depth"].(float64))
		sumFrames += int(row["in_flight_frames"].(float64))
	}
	if doc.InFlight != sumBatches || doc.StagedFrames != sumStaged || doc.InFlightFrames != sumFrames {
		t.Errorf("/statz totals (%d, %d, %d) != row sums (%d, %d, %d)",
			doc.InFlight, doc.StagedFrames, doc.InFlightFrames, sumBatches, sumStaged, sumFrames)
	}
}
