package serve

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"seneca/internal/backend"
	"seneca/internal/breaker"
	"seneca/internal/energy"
	"seneca/internal/obs"
)

// worker wraps one pooled backend with its load counters and its circuit
// breaker: BreakerThreshold consecutive failures trip it open and evict the
// backend for a fresh one; after BreakerCooldown a single half-open probe
// batch closes it or re-opens it (evicting again). The load counters are
// atomics so router scans and the stats snapshot never contend with dispatch.
type worker struct {
	id   int
	kind string // backend kind this slot runs, e.g. "dpu-sim"

	// busy counts the frame lanes held by staged or executing batches, out of
	// Pipeline × width. Only batchLoop takes lanes (place), so its check-then-
	// add cannot overshoot; dispatch gives them back (release).
	busy           atomic.Int32
	inflight       atomic.Int32 // batches executing or staged on this worker
	inflightFrames atomic.Int64 // frames currently executing
	staged         atomic.Int64 // frames routed here but not yet executing
	batches        atomic.Int64 // batches that finished (success or failure)
	dispatched     atomic.Int64 // batches handed to the backend's Execute

	// The per-backend batch-latency histogram, shared by every worker of the
	// same kind (set by initMetrics).
	mBatchLat *obs.Histogram

	br *breaker.Breaker

	mu     sync.Mutex
	be     backend.Backend
	width  int                    // frames be runs in the time of one (widthOf)
	mk     func() backend.Backend // eviction factory: builds a fresh backend
	served energy.Report          // every successful batch's report, summed
}

// widthOf is how many frames a backend runs side by side in the time of one,
// by its own cost model: the largest n ≤ threads with Cost(n).Latency ≤
// Cost(1).Latency, and never more than the host has cores to run them on. The
// dual-core dpu-sim prices two frames like one (2, given two threads);
// cpu-int8 and gpu-sim price frames back to back (1). It is the one place a
// runner's capacity comes from: a Width method on backend.Backend would have
// every executor restate what its Cost already says.
func widthOf(be backend.Backend, threads int) int {
	limit := min(threads, runtime.GOMAXPROCS(0))
	one := be.Cost(1).Latency
	n := 1
	for n < limit && be.Cost(n+1).Latency <= one {
		n++
	}
	return n
}

// adopt installs a backend and sizes the worker's lanes from it. The caller
// holds w.mu, or has not shared w yet.
func (w *worker) adopt(be backend.Backend, threads int) {
	w.be = be
	w.width = widthOf(be, threads)
}

// lanesFor returns how many lanes a batch of the given frame count holds on
// this worker — one per frame while they fit side by side, the whole width
// once the batch is larger and owns the runner — out of its pipeline × width,
// and whether that many are free now.
func (w *worker) lanesFor(frames, pipeline int) (need int, free bool) {
	width := w.laneWidth()
	need = min(frames, width)
	return need, int(w.busy.Load())+need <= pipeline*width
}

// laneWidth returns the width of the worker's current backend.
func (w *worker) laneWidth() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.width
}

// getBackend returns the worker's current backend (replaced on eviction, so
// dispatch must read it through here rather than caching it).
func (w *worker) getBackend() backend.Backend {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.be
}

// healthy is the one meaning of a healthy runner — the router places regular
// traffic only on these, and /statz, /healthz and /metrics count them: breaker
// closed and the backend's own self-check passes. Open and half-open workers,
// and a backend failing its self-check, count as degraded capacity.
func (w *worker) healthy() bool {
	return w.br.State() == breaker.Closed && w.getBackend().Health() == nil
}

// fail charges one batch failure (error or watchdog stall) to the worker's
// breaker. A trip evicts the broken backend and installs a fresh one built
// from the retained device and program, so the cooldown-then-probe cycle
// exercises a clean runtime rather than the wedged one.
func (w *worker) fail(s *Server) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.br.Failure(time.Now()) {
		return
	}
	if w.mk != nil {
		if nb := w.mk(); nb != nil {
			w.adopt(nb, s.cfg.Threads)
		}
	}
	s.stats.evictions.Add(1)
}

// place routes a batch of the given frame count to a worker that can take it
// right now, claims the worker and takes the batch's lanes there; it returns
// nil when no worker can (every eligible one is busy, or the breakers are
// cooling) and batchLoop keeps the batch open. An open worker whose cooldown
// has expired takes priority — its half-open probe is the only way the pool
// regains capacity, and the broken backend behind it has already been
// replaced — otherwise the cost-model router places the batch: each healthy
// worker is priced by its backend's Cost prediction and current load, and
// backend.Route picks, among those with the lanes free, under the configured
// latency SLO and energy budget (a homogeneous pool degenerates to plain
// least-loaded dispatch). cands is batchLoop's scratch, one entry per worker.
// probe marks the claim as its worker's half-open probe, which dispatch must
// hand back if the batch never runs.
func (s *Server) place(frames int, cands []backend.Candidate) (w *worker, lanes int, probe bool) {
	now := time.Now()
	claim := func(w *worker) (*worker, int, bool) {
		ok, probe := w.br.Claim(now)
		if !ok {
			return nil, 0, false
		}
		if probe {
			s.stats.probes.Add(1)
		}
		need, _ := w.lanesFor(frames, s.cfg.Pipeline)
		w.busy.Add(int32(need))
		return w, need, probe
	}
	room := false
	for i, w := range s.pool {
		_, free := w.lanesFor(frames, s.cfg.Pipeline)
		if free && w.br.State() != breaker.Closed {
			if got, lanes, probe := claim(w); got != nil {
				return got, lanes, probe
			}
		}
		cands[i] = backend.Candidate{Healthy: w.healthy(), Full: !free, InFlight: int(w.inflight.Load())}
		room = room || cands[i].Healthy && free
	}
	if !room {
		return nil, 0, false // not worth pricing: Cost runs the device model
	}
	for i, w := range s.pool {
		if cands[i].Healthy {
			cands[i].Cost = w.getBackend().Cost(frames)
		}
	}
	if i := backend.Route(s.router, frames, cands); i >= 0 {
		return claim(s.pool[i])
	}
	return nil, 0, false
}

// release gives a batch's lanes back to its worker and wakes batchLoop, which
// may be holding a batch open for them.
func (s *Server) release(w *worker, lanes int) {
	w.busy.Add(int32(-lanes))
	select {
	case s.freed <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// probePoll is how batchLoop learns that a cooldown has run out, which no
// release announces: it returns a channel that fires at the soonest time some
// worker's breaker admits its next probe (never sooner than timerFloor, so a
// probe held up only by busy lanes waits for their release instead of
// spinning), or nil — never ready in a select — when no worker is waiting
// for one.
func (s *Server) probePoll() <-chan time.Time {
	var soonest time.Time
	for _, w := range s.pool {
		if at := w.br.NextProbe(); !at.IsZero() && (soonest.IsZero() || at.Before(soonest)) {
			soonest = at
		}
	}
	if soonest.IsZero() {
		return nil
	}
	return time.After(max(time.Until(soonest), timerFloor))
}

// Health is a point-in-time snapshot of the pool's self-healing state, as
// exported by GET /healthz and the chaos tests.
type Health struct {
	// Runners is the configured pool size, Healthy how many runners are
	// healthy (worker.healthy). Degraded is Healthy < Runners (the /healthz
	// "degraded" status; 200 as long as one runner is healthy).
	Runners  int  `json:"runners"`
	Healthy  int  `json:"healthy_runners"`
	Degraded bool `json:"degraded"`
	// Breakers holds each worker's breaker state, by worker id; Backends
	// holds the backend kind each worker runs and Widths how many frames its
	// device model runs in the time of one (a worker has Pipeline × that many
	// dispatch lanes), in the same order.
	Breakers []string `json:"breakers"`
	Backends []string `json:"backends"`
	Widths   []int    `json:"widths"`
	// Evictions counts backends replaced after tripping a breaker; Probes
	// counts half-open probe batches; Redispatches counts jobs re-queued
	// out of failed or stalled batches; WatchdogTimeouts counts batches
	// reclaimed from a stalled backend.
	Evictions        uint64 `json:"evictions"`
	Probes           uint64 `json:"probes"`
	Redispatches     uint64 `json:"redispatches"`
	WatchdogTimeouts uint64 `json:"watchdog_timeouts"`
}

// Health snapshots the self-healing state of the backend pool, from the same
// rows Stats reads.
func (s *Server) Health() Health {
	rows, _, healthy := s.rows(s.pool)
	h := Health{
		Runners:          len(rows),
		Healthy:          healthy,
		Degraded:         healthy < len(rows),
		Evictions:        s.stats.evictions.Load(),
		Probes:           s.stats.probes.Load(),
		Redispatches:     s.stats.redispatched.Load(),
		WatchdogTimeouts: s.stats.watchdog.Load(),
	}
	for _, r := range rows {
		h.Breakers = append(h.Breakers, r.Breaker)
		h.Backends = append(h.Backends, r.Backend)
		h.Widths = append(h.Widths, r.Lanes/s.cfg.Pipeline)
	}
	return h
}
