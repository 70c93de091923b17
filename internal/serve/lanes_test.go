package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"seneca/internal/backend"
	"seneca/internal/fault"
)

// Lane tests: dispatch capacity is counted in frame lanes (see batchLoop), and
// these pin the three things that has to mean — lanes come back on every way
// out of a batch, lone frames share a runner while a larger batch owns it, and
// a paced replica delivers what its board model says, whatever the host.

// twoWide is a server over one dpu-sim runner with two submission threads: the
// dual-core board model runs two frames in the time of one, so the runner has
// two lanes. The host needs two cores for that; a single-core one borrows a
// second P for the test.
func twoWide(t *testing.T, cfg Config) *Server {
	t.Helper()
	if runtime.GOMAXPROCS(0) < 2 {
		prev := runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
	cfg.Runners, cfg.Pipeline, cfg.Threads = 1, 1, 2
	s, _, _, _ := newTestServer(t, cfg)
	if st := s.Stats(); st.Lanes != 2 || st.Backends[0].Lanes != 2 {
		t.Fatalf("dpu-sim at 2 threads has %d lanes (row: %d), want 2", st.Lanes, st.Backends[0].Lanes)
	}
	s.observeService(time.Millisecond) // window 0: nothing below lingers
	return s
}

// checkLanesIdle requires every runner's lanes to be back and the books to
// balance with nothing queued or in flight.
func checkLanesIdle(t *testing.T, s *Server, when string) {
	t.Helper()
	waitFor(t, 5*time.Second, "lanes still held "+when, func() bool { return s.Stats().LanesBusy == 0 })
	st := s.Stats()
	for _, b := range st.Backends {
		if b.LanesBusy != 0 || b.InFlightBatches != 0 || b.InFlightFrames != 0 || b.QueueDepth != 0 {
			t.Fatalf("%s: runner %d not idle: %+v", when, b.Worker, b)
		}
	}
	checkBooks(t, s)
}

// diesWhenStaged is a request context that reports cancellation from the
// moment a batch has been handed to the runner — after formation's last look
// at it, before dispatch's.
type diesWhenStaged struct {
	context.Context
	w *worker
}

func (c diesWhenStaged) Err() error {
	if c.w.staged.Load() > 0 {
		return context.Canceled
	}
	return nil
}

// TestLanesConservedOnEveryExitPath walks a two-lane runner through every way
// a batch can end and requires, after each and again after Shutdown, that no
// lane is still held, that every admitted request is accounted for, and that
// every goroutine the server started is gone.
func TestLanesConservedOnEveryExitPath(t *testing.T) {
	bg := context.Background()
	served := func(t *testing.T, what string, ch <-chan segmented) {
		t.Helper()
		if r := <-ch; r.err != nil {
			t.Fatalf("%s: %v", what, r.err)
		}
	}
	// The redispatch is counted before the job is back on the queue, so by
	// the time the request is answered the counter has moved.
	redispatched := func(t *testing.T, s *Server) {
		t.Helper()
		if n := s.Stats().Redispatches; n != 1 {
			t.Fatalf("%d redispatches by the time the request behind the failed batch was answered, want 1", n)
		}
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		run  func(t *testing.T, s *Server)
	}{
		{"every rider gave up before a runner was free", Config{}, func(t *testing.T, s *Server) {
			release := holdLanes(s, 2)
			ctx, cancel := context.WithCancel(bg)
			a, b := segment(ctx, s), segment(ctx, s)
			waitFormed(t, s, 2)
			cancel()
			release()
			for _, ch := range []<-chan segmented{a, b} {
				if r := <-ch; !errors.Is(r.err, context.Canceled) {
					t.Fatalf("err %v, want context.Canceled", r.err)
				}
			}
			// The riders return on their own contexts; the batcher drops them
			// when the freed lanes make it look at the batch again.
			waitFor(t, 5*time.Second, "the dead batch was never dropped", func() bool { return s.Stats().ExpiredQueue == 2 })
			if st := s.Stats(); st.Batches != 0 || st.Backends[0].Dispatched != 0 {
				t.Fatalf("batches %d, dispatched %d; want a batch nobody ran", st.Batches, st.Backends[0].Dispatched)
			}
		}},
		{"expiry found at dispatch", Config{}, func(t *testing.T, s *Server) {
			r := <-segment(diesWhenStaged{bg, s.pool[0]}, s)
			if !errors.Is(r.err, ErrExpiredInQueue) {
				t.Fatalf("err %v, want ErrExpiredInQueue", r.err)
			}
			if st := s.Stats(); st.ExpiredDispatch != 1 || st.Backends[0].Dispatched != 0 {
				t.Fatalf("expired_dispatch %d, dispatched %d; want 1, 0", st.ExpiredDispatch, st.Backends[0].Dispatched)
			}
		}},
		{"run error, redispatched", Config{}, func(t *testing.T, s *Server) {
			fault.Enable("backend.execute.dpu-sim", fault.Fault{Count: 1})
			served(t, "request behind a failed batch", segment(bg, s))
			redispatched(t, s)
			if st := s.Stats(); st.Evictions != 0 {
				t.Fatalf("%d evictions below the breaker threshold", st.Evictions)
			}
		}},
		{"stall past the watchdog", Config{WatchdogTimeout: 50 * time.Millisecond}, func(t *testing.T, s *Server) {
			// The abandoned Execute wakes up 100 ms after the watchdog gave
			// its lanes back; the goroutine check below waits for it.
			fault.Enable("backend.execute", fault.Fault{Count: 1, Delay: 150 * time.Millisecond})
			served(t, "request behind a stalled batch", segment(bg, s))
			redispatched(t, s)
			if st := s.Stats(); st.WatchdogTimeouts != 1 {
				t.Fatalf("%d watchdog timeouts, want 1", st.WatchdogTimeouts)
			}
		}},
		{"breaker trips, evicts, probes half-open, closes", Config{BreakerThreshold: 1, BreakerCooldown: 20 * time.Millisecond},
			func(t *testing.T, s *Server) {
				fault.Enable("backend.execute.dpu-sim", fault.Fault{Count: 1})
				served(t, "request that rode the trip and the probe", segment(bg, s))
				st := s.Stats()
				if st.Evictions != 1 || st.Probes != 1 || st.HealthyRunners != 1 {
					t.Fatalf("evictions %d, probes %d, healthy %d; want 1, 1, 1", st.Evictions, st.Probes, st.HealthyRunners)
				}
				if st.Lanes != 2 {
					t.Fatalf("the rebuilt runner has %d lanes, want 2", st.Lanes)
				}
			}},
		{"shutdown while the batch lingers", Config{MaxDelay: 10 * time.Second}, func(t *testing.T, s *Server) {
			s.serviceEWMA.Store(int64(8 * time.Second)) // window 1s
			rider := segment(bg, s)
			waitFormed(t, s, 1)
			done := shutdown(t, s)
			served(t, "rider", rider)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}},
		{"shutdown while the batch waits for lanes", Config{}, func(t *testing.T, s *Server) {
			release := holdLanes(s, 2)
			a, b := segment(bg, s), segment(bg, s)
			waitFormed(t, s, 2)
			done := shutdown(t, s)
			release()
			served(t, "first rider", a)
			served(t, "second rider", b)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}},
		{"shutdown mid-execution", Config{}, func(t *testing.T, s *Server) {
			fault.Enable("backend.execute", fault.Fault{Count: 1, Delay: 50 * time.Millisecond})
			rider := segment(bg, s)
			waitFor(t, 5*time.Second, "the batch never started", func() bool { return s.Stats().InFlightFrames == 1 })
			if st := s.Stats(); st.LanesBusy != 1 {
				t.Fatalf("one frame executing holds %d lanes, want 1", st.LanesBusy)
			}
			done := shutdown(t, s)
			served(t, "rider", rider)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Cleanup(fault.Reset)
			base := runtime.NumGoroutine()
			s := twoWide(t, tc.cfg)
			tc.run(t, s)
			checkLanesIdle(t, s, "after the batch")
			ctx, cancel := context.WithTimeout(bg, 10*time.Second)
			defer cancel()
			if err := s.Shutdown(ctx); err != nil {
				t.Fatal(err)
			}
			checkLanesIdle(t, s, "after Shutdown")
			waitFor(t, 5*time.Second, "goroutines leaked", func() bool { return runtime.NumGoroutine() <= base })
		})
	}
}

// A lone request is dispatched while another lone frame is executing on the
// same runner: it takes the second lane instead of queueing behind the first.
func TestLoneRequestRunsBesideLoneFrame(t *testing.T) {
	s := twoWide(t, Config{})
	release := holdLanes(s, 1) // a lone frame, executing
	select {
	case r := <-segment(context.Background(), s):
		if r.err != nil || r.occupancy != 1 {
			t.Fatalf("lone request: occupancy %d, err %v", r.occupancy, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("lone request queued behind a lone frame with the runner's second lane idle")
	}
	// Its lane comes back once it is answered; the other frame's stays held.
	waitFor(t, 5*time.Second, "the answered request kept its lane", func() bool { return s.Stats().LanesBusy == 1 })
	release()
	checkLanesIdle(t, s, "after both frames")
}

// A batch larger than one lane's worth of the runner waits for the whole
// runner, keeps collecting while it does, and runs alone: what arrives while
// it executes starts only after it.
func TestBatchOfThreeOwnsTheRunner(t *testing.T) {
	s := twoWide(t, Config{MaxBatch: 8})
	t.Cleanup(fault.Reset)
	bg := context.Background()
	first, second := holdLanes(s, 1), holdLanes(s, 1) // two lone frames, executing
	riders := []<-chan segmented{segment(bg, s), segment(bg, s), segment(bg, s)}
	waitFormed(t, s, 3)
	first() // one lane back: not enough for three frames, and the batch is not split
	waitFor(t, 5*time.Second, "the batcher never looked at the freed lane", func() bool { return len(s.freed) == 0 })
	riders = append(riders, segment(bg, s))
	waitFormed(t, s, 4)

	// Hold the batch inside Execute long enough to look at it and to send a
	// request after it.
	const held = 150 * time.Millisecond
	fault.Enable("backend.execute", fault.Fault{Count: 1, Delay: held})
	start := time.Now()
	second()
	waitFor(t, 5*time.Second, "the batch never started", func() bool { return s.Stats().InFlightFrames == 4 })
	if st := s.Stats(); st.LanesBusy != 2 || st.InFlight != 1 {
		t.Fatalf("%d lanes busy under %d batches, want the whole runner under one", st.LanesBusy, st.InFlight)
	}
	late := segment(bg, s)
	waitFormed(t, s, 5)
	for i, ch := range riders {
		if r := <-ch; r.err != nil || r.occupancy != 4 {
			t.Fatalf("rider %d: occupancy %d, err %v; want one batch of 4", i, r.occupancy, r.err)
		}
	}
	r := <-late
	if r.err != nil || r.occupancy != 1 {
		t.Fatalf("late request: occupancy %d, err %v", r.occupancy, r.err)
	}
	if took := r.at.Sub(start); took < held {
		t.Fatalf("late request was back %v after the batch got its lanes — it ran beside a batch held for %v", took, held)
	}
	if st := s.Stats(); st.Batches != 2 {
		t.Fatalf("%d batches, want the batch of 4 and the late request", st.Batches)
	}
	checkLanesIdle(t, s, "after both batches")
}

// TestPacedCapacityMatchesBoardModel checks SimPace fidelity in lanes: a paced
// dpu-sim replica with four submission threads delivers lone frames at the
// rate its board model gives two cores — width ÷ (pace × D(1)) — from two
// clients and from four, no more on a host with cores to spare, and a backlog
// still goes through whole-runner batches at 8 ÷ (pace × D(8)). Runners whose
// model prices frames back to back keep serialising lone requests.
func TestPacedCapacityMatchesBoardModel(t *testing.T) {
	const frameTime = 40 * time.Millisecond // paced D(1): long against host overheads and timer slack
	dev, prog, imgs := testProgram(t, 32, 1)
	type load struct {
		kind                                 string
		threads, maxBatch, lanes             int
		clients, perClient, framesPerService int // the model serves framesPerService frames per D(framesPerService)
	}
	// rate is frames per second through a closed loop. Every lane is held until
	// each client has its first request in, so the run starts — and, the
	// clients staying in step, stays — in the pattern the model is asked about.
	rate := func(t *testing.T, s *Server, l load) float64 {
		t.Helper()
		release := holdLanes(s, l.lanes)
		queued := s.stats.accepted.Load() + uint64(l.clients)
		var wg sync.WaitGroup
		for c := 0; c < l.clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := 0; k < l.perClient; k++ {
					if _, err := s.Submit(context.Background(), imgs[0]); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		waitFor(t, 5*time.Second, "clients never queued up", func() bool { return s.stats.accepted.Load() == queued })
		start := time.Now()
		release()
		wg.Wait()
		return float64(l.clients*l.perClient) / time.Since(start).Seconds()
	}
	check := func(t *testing.T, l load) {
		t.Helper()
		be, err := backend.New(l.kind, dev, prog, backend.Options{Threads: l.threads})
		if err != nil {
			t.Fatal(err)
		}
		pace := float64(frameTime) / float64(be.Cost(1).Latency)
		want := float64(l.framesPerService) / (pace * be.Cost(l.framesPerService).Latency.Seconds())
		s, err := New(dev, prog, Config{Backends: l.kind, Threads: l.threads, MaxBatch: l.maxBatch, SimPace: pace})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			s.Shutdown(ctx)
			checkLanesIdle(t, s, "after Shutdown")
		}()
		s.observeService(time.Millisecond) // window 0 from the first request on
		if got := s.Stats().Lanes; got != l.lanes {
			t.Fatalf("%+v: %d lanes, want %d", l, got, l.lanes)
		}
		// A busy host can only slow a paced server down: one run inside the
		// band is proof, one above it fails at once, one below it gets two
		// more chances.
		var got float64
		for attempt := 0; attempt < 3; attempt++ {
			if got = rate(t, s, l); got >= 0.9*want {
				break
			}
		}
		if got < 0.9*want || got > 1.05*want {
			t.Errorf("%+v: %.1f frames/s, board model says %.1f (want within [0.9, 1.05]×)", l, got, want)
		}
	}

	for _, procs := range []int{2, 8} {
		t.Run(fmt.Sprintf("dpu-sim/GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			lone := load{kind: backend.KindDPUSim, threads: 4, maxBatch: 1, lanes: 2, framesPerService: 2}
			lone.clients, lone.perClient = 2, 12
			check(t, lone)
			lone.clients, lone.perClient = 4, 6
			check(t, lone)
			check(t, load{kind: backend.KindDPUSim, threads: 4, maxBatch: 8, lanes: 2, clients: 16, perClient: 3, framesPerService: 8})
		})
	}
	t.Run("one lane", func(t *testing.T) {
		lone := load{maxBatch: 1, lanes: 1, clients: 2, perClient: 6, framesPerService: 1}
		for _, runner := range []struct {
			kind    string
			threads int
		}{{backend.KindDPUSim, 1}, {backend.KindCPUInt8, 4}, {backend.KindGPUSim, 4}} {
			lone.kind, lone.threads = runner.kind, runner.threads
			check(t, lone)
		}
	})
}

// TestExpiredBatchReleasesOnlyItsOwnClaim: a batch claims a closed runner, and
// every rider has expired by the time it is dispatched; meanwhile the runner
// tripped, cooled down and a second batch holds its half-open probe. Dropping
// the dead batch must hand back only what its own claim holds — nothing — so
// a second probe is still refused while the first is out. (Dispatch used to
// clear the probe flag for any all-expired batch.)
func TestExpiredBatchReleasesOnlyItsOwnClaim(t *testing.T) {
	s, _, _, imgs := newTestServer(t, Config{Runners: 1, Threads: 1, BreakerThreshold: 1, BreakerCooldown: time.Millisecond})
	w, lanes, probe := s.place(1, make([]backend.Candidate, 1))
	if w == nil || probe {
		t.Fatalf("placing on a closed runner: worker %v, probe %t", w, probe)
	}
	w.fail(s)                        // threshold 1: the runner trips
	time.Sleep(2 * time.Millisecond) // past the cooldown
	if ok, probe := w.br.Claim(time.Now()); !ok || !probe {
		t.Fatalf("claim past the cooldown: ok %t, probe %t; want the probe", ok, probe)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	j := &job{ctx: ctx, img: imgs[0], accepted: time.Now(), done: make(chan outcome, 1)}
	w.inflight.Add(1) // what batchLoop does before it hands a batch over
	w.staged.Add(1)
	s.dispatch(w, []*job{j}, lanes, probe)
	if out := <-j.done; !errors.Is(out.err, context.Canceled) {
		t.Fatalf("dead rider: %v, want context.Canceled", out.err)
	}
	if ok, _ := w.br.Claim(time.Now()); ok {
		t.Fatal("a second claim got in while the first probe is out")
	}
}
