package serve

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"seneca/internal/tensor"
)

// Batch-formation tests. They steer the batcher white-box instead of racing
// it: holdLanes takes every lane of a runner so "no runner can take the
// batch" lasts exactly as long as the test wants, and observeService plants
// the service estimate the linger window derives from.

// oneSlot is a server whose only runner has a single lane (Threads 1) and a
// MaxDelay ceiling no test should ever be seen waiting out.
func oneSlot(t *testing.T, maxBatch int) *Server {
	t.Helper()
	s, _, _, _ := newTestServer(t, Config{
		Runners: 1, Pipeline: 1, Threads: 1, MaxBatch: maxBatch, MaxDelay: 10 * time.Second,
	})
	return s
}

// holdLanes takes n lanes of an idle server's first runner, as an executing
// batch would, and returns the function that gives them back.
func holdLanes(s *Server, n int) (release func()) {
	w := s.pool[0]
	w.busy.Add(int32(n))
	return func() { s.release(w, n) }
}

// holdSlot takes the only lane of a oneSlot server.
func holdSlot(s *Server) (release func()) { return holdLanes(s, 1) }

type segmented struct {
	occupancy int // what HTTP reports as X-Seneca-Batch
	err       error
	at        time.Time // when the answer came back
}

// segment submits one request in the background.
func segment(ctx context.Context, s *Server) <-chan segmented {
	g := s.prog.Graph
	img := tensor.New(g.InC, g.InH, g.InW)
	out := make(chan segmented, 1)
	go func() {
		_, n, err := s.Segment(ctx, img)
		out <- segmented{n, err, time.Now()}
	}()
	return out
}

// waitFormed blocks until n requests have been admitted and every one of
// them has left the queue for the open batch.
func waitFormed(t *testing.T, s *Server, n uint64) {
	t.Helper()
	waitFor(t, 5*time.Second, "admitted jobs never joined the open batch", func() bool {
		return s.stats.accepted.Load() == n && s.QueueDepth() == 0
	})
}

// shutdown starts Shutdown in the background, returns once the queue is closed
// to new work, and delivers Shutdown's result on the channel.
func shutdown(t *testing.T, s *Server) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	waitFor(t, 5*time.Second, "Shutdown never closed the queue", s.Draining)
	return done
}

func checkBooks(t *testing.T, s *Server) {
	t.Helper()
	if st := s.Stats(); st.Accepted != st.Completed+st.Expired+st.Failed {
		t.Fatalf("accepted %d != completed %d + expired %d + failed %d", st.Accepted, st.Completed, st.Expired, st.Failed)
	}
}

// An idle server with a warmed estimate dispatches a lone request after
// service/8, not after MaxDelay — at once when that is less than a timer can
// keep; with no estimate yet MaxDelay is the window.
func TestLoneRequestWaitsOnlyTheWindow(t *testing.T) {
	s := oneSlot(t, 8)
	if got := s.batchWindow(); got != s.cfg.MaxDelay {
		t.Fatalf("window with no estimate = %v, want MaxDelay %v", got, s.cfg.MaxDelay)
	}
	s.observeService(8 * time.Millisecond)
	if got := s.batchWindow(); got != time.Millisecond {
		t.Fatalf("window at an 8ms service estimate = %v, want 1ms", got)
	}
	start := time.Now()
	if r := <-segment(context.Background(), s); r.err != nil || r.occupancy != 1 {
		t.Fatalf("lone request: occupancy %d, err %v", r.occupancy, r.err)
	}
	if took := time.Since(start); took > s.cfg.MaxDelay/4 {
		t.Fatalf("lone request on an idle server took %v — it sat out the MaxDelay ceiling", took)
	}
	// The estimate can only pull the window below the ceiling, never above.
	s.serviceEWMA.Store(int64(time.Hour))
	if got := s.batchWindow(); got != s.cfg.MaxDelay {
		t.Fatalf("window at an absurd estimate = %v, want the MaxDelay ceiling", got)
	}
	// A 2 ms service asks for 250 µs, which an idle runtime would round up to
	// a whole millisecond: no timer is armed at all.
	s.serviceEWMA.Store(int64(2 * time.Millisecond))
	if got := s.batchWindow(); got != 0 {
		t.Fatalf("window at a 2ms service estimate = %v, want 0", got)
	}
	if got := s.Stats().BatchWindowMS; got != 0 {
		t.Fatalf("batch_window_ms at a 2ms service estimate = %v, want 0", got)
	}
}

// While the only slot is busy the batch stays open: requests that arrive
// long after the linger window has lapsed still ride the one following batch.
func TestBusySlotKeepsBatchOpen(t *testing.T) {
	s := oneSlot(t, 8)
	s.observeService(8 * time.Microsecond) // window 1µs: lingering collects nobody
	release := holdSlot(s)
	const n = 5
	riders := []<-chan segmented{segment(context.Background(), s)}
	waitFormed(t, s, 1)
	time.Sleep(time.Millisecond) // the head is now 1000 windows old
	for len(riders) < n {
		riders = append(riders, segment(context.Background(), s))
	}
	waitFormed(t, s, n)
	release()
	for i, ch := range riders {
		if r := <-ch; r.err != nil || r.occupancy != n {
			t.Fatalf("rider %d: occupancy %d, err %v; want all %d in one batch", i, r.occupancy, r.err, n)
		}
	}
	if st := s.Stats(); st.Batches != 1 {
		t.Fatalf("%d batches for %d riders, want 1", st.Batches, n)
	}
}

// Two requests admitted within the window share a batch — what keeps a
// closed-loop client pair in lock step — and a full batch goes at once.
func TestWindowCatchesThePair(t *testing.T) {
	s := oneSlot(t, 2)
	s.observeService(8 * time.Second) // window 1s
	start := time.Now()
	first := segment(context.Background(), s)
	waitFormed(t, s, 1) // slot in hand, lingering
	second := segment(context.Background(), s)
	for _, ch := range []<-chan segmented{first, second} {
		if r := <-ch; r.err != nil || r.occupancy != 2 {
			t.Fatalf("pair member: occupancy %d, err %v; want a shared batch of 2", r.occupancy, r.err)
		}
	}
	if took := time.Since(start); took > time.Second/2 {
		t.Fatalf("full batch took %v — it waited out its window instead of leaving when full", took)
	}
}

// Shutdown during either phase drains every admitted job, and the batcher
// goroutine (with everything it started) is gone afterwards.
func TestShutdownDuringFormationDrains(t *testing.T) {
	finish := func(t *testing.T, s *Server, base int, done <-chan error, riders []<-chan segmented) {
		for i, ch := range riders {
			if r := <-ch; r.err != nil || r.occupancy != len(riders) {
				t.Fatalf("rider %d dropped by the drain: occupancy %d, err %v", i, r.occupancy, r.err)
			}
		}
		if err := <-done; err != nil {
			t.Fatalf("Shutdown: %v", err)
		}
		checkBooks(t, s)
		waitFor(t, 5*time.Second, "goroutines leaked past Shutdown", func() bool {
			return runtime.NumGoroutine() <= base
		})
	}

	t.Run("every slot busy", func(t *testing.T) {
		base := runtime.NumGoroutine()
		s := oneSlot(t, 8)
		release := holdSlot(s)
		riders := []<-chan segmented{
			segment(context.Background(), s), segment(context.Background(), s), segment(context.Background(), s),
		}
		waitFormed(t, s, 3)
		done := shutdown(t, s)
		release()
		finish(t, s, base, done, riders)
	})
	t.Run("lingering", func(t *testing.T) {
		base := runtime.NumGoroutine()
		s := oneSlot(t, 8)
		s.observeService(8 * time.Second) // window 1s
		start := time.Now()
		riders := []<-chan segmented{segment(context.Background(), s)}
		waitFormed(t, s, 1)
		done := shutdown(t, s)
		finish(t, s, base, done, riders)
		if took := time.Since(start); took > time.Second/2 {
			t.Fatalf("drain took %v — the closed queue did not end the linger", took)
		}
	})
}

// A job whose context dies while it sits in the open batch, in either phase,
// is an ExpiredQueue: it never reaches dispatch, let alone a backend.
func TestContextDiesDuringFormation(t *testing.T) {
	check := func(t *testing.T, s *Server, victim, survivor <-chan segmented) {
		if r := <-victim; !errors.Is(r.err, context.Canceled) {
			t.Fatalf("victim: err %v, want context.Canceled", r.err)
		}
		if r := <-survivor; r.err != nil || r.occupancy != 1 {
			t.Fatalf("survivor: occupancy %d, err %v; want a batch of its own", r.occupancy, r.err)
		}
		st := s.Stats()
		if st.ExpiredQueue != 1 || st.ExpiredDispatch != 0 || st.Completed != 1 {
			t.Fatalf("expired_queue %d, expired_dispatch %d, completed %d; want 1, 0, 1",
				st.ExpiredQueue, st.ExpiredDispatch, st.Completed)
		}
		if frames := st.Backends[0].Frames; frames != 1 {
			t.Fatalf("backend ran %d frames, want only the survivor's", frames)
		}
		checkBooks(t, s)
	}

	t.Run("every slot busy", func(t *testing.T) {
		s := oneSlot(t, 8)
		s.observeService(8 * time.Microsecond) // window 1µs: phase 1 is the only wait
		release := holdSlot(s)
		ctx, cancel := context.WithCancel(context.Background())
		victim := segment(ctx, s)
		survivor := segment(context.Background(), s)
		waitFormed(t, s, 2)
		cancel()
		release()
		check(t, s, victim, survivor)
	})
	t.Run("lingering", func(t *testing.T) {
		s := oneSlot(t, 2)
		s.observeService(8 * time.Second) // window 1s
		ctx, cancel := context.WithCancel(context.Background())
		victim := segment(ctx, s)
		waitFormed(t, s, 1)
		cancel()
		survivor := segment(context.Background(), s) // fills the batch: formation ends
		check(t, s, victim, survivor)
	})
}
