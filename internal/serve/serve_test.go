package serve

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"seneca/internal/dpu"
	"seneca/internal/quant"
	"seneca/internal/tensor"
	"seneca/internal/unet"
	"seneca/internal/xmodel"
)

// testProgram compiles a tiny shape-only-quantized U-Net plus a batch of
// random inputs of the matching geometry.
func testProgram(t testing.TB, size, nimgs int) (*dpu.Device, *xmodel.Program, []*tensor.Tensor) {
	t.Helper()
	cfg := unet.Config{Name: "tiny", Depth: 2, BaseFilters: 8, InChannels: 1, NumClasses: 6, DropoutRate: 0, Seed: 2}
	m := unet.New(cfg)
	g := m.Export(size, size)
	q, err := quant.QuantizeShapeOnly(g)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := xmodel.Compile(q, cfg.Name)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	imgs := make([]*tensor.Tensor, nimgs)
	for i := range imgs {
		img := tensor.New(1, size, size)
		for j := range img.Data {
			img.Data[j] = float32(rng.NormFloat64() * 0.3)
		}
		imgs[i] = img
	}
	return dpu.New(dpu.ZCU104B4096()), prog, imgs
}

func newTestServer(t testing.TB, cfg Config) (*Server, *dpu.Device, *xmodel.Program, []*tensor.Tensor) {
	t.Helper()
	dev, prog, imgs := testProgram(t, 32, 8)
	s, err := New(dev, prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, dev, prog, imgs
}

func TestSubmitMatchesDirectExecute(t *testing.T) {
	s, _, prog, imgs := newTestServer(t, Config{Threads: 2})
	for i, img := range imgs {
		mask, err := s.Submit(context.Background(), img)
		if err != nil {
			t.Fatal(err)
		}
		want, err := prog.Run(img)
		if err != nil {
			t.Fatal(err)
		}
		if len(mask) != len(want) {
			t.Fatalf("img %d: mask length %d, want %d", i, len(mask), len(want))
		}
		for j := range want {
			if mask[j] != want[j] {
				t.Fatalf("img %d: mask diverges from direct execution at %d", i, j)
			}
		}
	}
	st := s.Stats()
	if st.Completed != uint64(len(imgs)) || st.Accepted != uint64(len(imgs)) {
		t.Fatalf("stats: %+v", st)
	}
}

func TestConcurrentSubmitsCoalesce(t *testing.T) {
	s, _, _, imgs := newTestServer(t, Config{
		Threads: 2, MaxBatch: 8, MaxDelay: 20 * time.Millisecond, QueueDepth: 64,
	})
	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), imgs[i%len(imgs)]); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	st := s.Stats()
	if st.Completed != n {
		t.Fatalf("completed %d of %d", st.Completed, n)
	}
	if st.MeanBatch <= 1 {
		t.Fatalf("micro-batching did not coalesce: mean occupancy %.2f over %d batches", st.MeanBatch, st.Batches)
	}
	if st.SimFPS <= 0 || st.SimWatts <= 0 || st.SimFPSPerWatt <= 0 {
		t.Fatalf("simulated deployment metrics missing: %+v", st)
	}
	// A one-runner pool is its row, bit for bit.
	if row := st.Backends[0]; st.SimFPS != row.SimFPS || st.SimWatts != row.SimWatts || st.SimFPSPerWatt != row.SimFPSPerWatt {
		t.Fatalf("pool sim (%v, %v, %v) != its only row's (%v, %v, %v)",
			st.SimFPS, st.SimWatts, st.SimFPSPerWatt, row.SimFPS, row.SimWatts, row.SimFPSPerWatt)
	}
}

func TestBackpressureRejectsWhenQueueFull(t *testing.T) {
	// One runner, no pipeline, one-deep queue: with 64 simultaneous
	// clients the queue must overflow and Submit must reject rather than
	// block or crash. SimPace holds the dispatch slot for each batch's
	// simulated board duration, so the queue cannot drain between
	// submissions no matter how fast the host kernels get — without it the
	// overflow depends on scheduler timing and flakes on fast machines.
	s, _, _, imgs := newTestServer(t, Config{
		Runners: 1, Pipeline: 1, Threads: 1, MaxBatch: 2,
		MaxDelay: time.Millisecond, QueueDepth: 1, SimPace: 1,
	})
	const n = 64
	var wg sync.WaitGroup
	var ok, full int
	var mu sync.Mutex
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := s.Submit(context.Background(), imgs[i%len(imgs)])
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err == nil:
				ok++
			case errors.Is(err, ErrQueueFull):
				full++
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}(i)
	}
	wg.Wait()
	if full == 0 {
		t.Fatal("no request was rejected with ErrQueueFull under 64× overload of a 1-deep queue")
	}
	if ok == 0 {
		t.Fatal("every request was rejected")
	}
	st := s.Stats()
	if st.Rejected != uint64(full) {
		t.Fatalf("stats.Rejected = %d, clients saw %d", st.Rejected, full)
	}
}

func TestQueuedDeadlineExpires(t *testing.T) {
	s, _, _, imgs := newTestServer(t, Config{Threads: 1})
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	time.Sleep(time.Millisecond) // ensure the deadline has passed
	_, err := s.Submit(ctx, imgs[0])
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want DeadlineExceeded", err)
	}
}

func TestShutdownDrainsAcceptedWork(t *testing.T) {
	s, _, _, imgs := newTestServer(t, Config{
		Runners: 1, Threads: 2, MaxBatch: 4, MaxDelay: 5 * time.Millisecond, QueueDepth: 64,
	})
	const n = 24
	results := make(chan error, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			_, err := s.Submit(context.Background(), imgs[i%len(imgs)])
			results <- err
		}(i)
	}
	// Wait until every request has been admitted, then drain.
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Accepted < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d admitted", s.Stats().Accepted, n)
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	for i := 0; i < n; i++ {
		if err := <-results; err != nil {
			t.Fatalf("admitted request dropped during drain: %v", err)
		}
	}
	if got := s.Stats().Completed; got != n {
		t.Fatalf("completed %d of %d after drain", got, n)
	}
	// Post-drain admission must refuse with the typed draining error, not
	// hang.
	if _, err := s.Submit(context.Background(), imgs[0]); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-shutdown Submit error = %v, want ErrDraining", err)
	}
	// Idempotent.
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
}

func TestSubmitRejectsBadShape(t *testing.T) {
	s, _, _, _ := newTestServer(t, Config{})
	if _, err := s.Submit(context.Background(), tensor.New(1, 16, 16)); err == nil {
		t.Fatal("mis-shaped input accepted")
	}
	if _, err := s.Submit(context.Background(), nil); err == nil {
		t.Fatal("nil input accepted")
	}
}

func TestNewValidates(t *testing.T) {
	dev, prog, _ := testProgram(t, 32, 1)
	if _, err := New(nil, prog, Config{}); err == nil {
		t.Fatal("nil device accepted")
	}
	if _, err := New(dev, nil, Config{}); err == nil {
		t.Fatal("nil program accepted")
	}
}

func TestLeastLoadedSpreadsAcrossRunners(t *testing.T) {
	// The 32×32 test geometry executes in microseconds on the arena fast
	// path, so a single runner can drain the queue before dispatch ever
	// sees overlapping load. Use a larger geometry to keep each inference
	// busy long enough that concurrent batches genuinely overlap.
	dev, prog, imgs := testProgram(t, 128, 8)
	s, err := New(dev, prog, Config{
		Runners: 3, Threads: 1, MaxBatch: 1, QueueDepth: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	const n = 30
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := s.Submit(context.Background(), imgs[i%len(imgs)]); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	var busyWorkers int
	for _, w := range s.pool {
		if w.batches.Load() > 0 {
			busyWorkers++
		}
	}
	if busyWorkers < 2 {
		t.Fatalf("only %d of %d runners ever dispatched under concurrent load", busyWorkers, len(s.pool))
	}
}
