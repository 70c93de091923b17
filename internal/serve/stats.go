package serve

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"seneca/internal/breaker"
	"seneca/internal/energy"
)

// latencyWindow is how many recent request latencies the quantile
// estimator keeps.
const latencyWindow = 4096

// stats is the server's internal counter block. All hot-path fields are
// atomics; the simulated-deployment accumulator takes a mutex because it
// updates three fields together.
type stats struct {
	accepted  atomic.Uint64
	rejected  atomic.Uint64
	completed atomic.Uint64
	expired   atomic.Uint64
	failed    atomic.Uint64

	// Per-stage breakdown of expired: rejected with a dead context at
	// admission, dropped at batch formation, dropped just before dispatch.
	// They sum to expired, so the pipeline shows exactly where deadline
	// misses die.
	expiredAdmission atomic.Uint64
	expiredQueue     atomic.Uint64
	expiredDispatch  atomic.Uint64
	batches          atomic.Uint64
	frames           atomic.Uint64 // completed frames, i.e. summed batch occupancy
	depth            atomic.Int64  // current queue depth

	// Self-healing counters (see health.go): runners replaced after a
	// breaker trip, half-open probe batches, jobs re-queued out of failed
	// batches, and batches reclaimed by the watchdog.
	evictions    atomic.Uint64
	probes       atomic.Uint64
	redispatched atomic.Uint64
	watchdog     atomic.Uint64

	lat latWindow

	mu        sync.Mutex
	simBusy   time.Duration // accumulated simulated runner-busy time
	simJoules float64
	simFrames int
}

func (st *stats) recordBatch(n int, res energy.Report) {
	st.batches.Add(1)
	st.frames.Add(uint64(n))
	st.mu.Lock()
	st.simBusy += res.Duration
	st.simJoules += res.Joules
	st.simFrames += res.Frames
	st.mu.Unlock()
}

// latWindow is a fixed-size ring of recent latencies; quantiles are
// computed on demand from a snapshot copy.
type latWindow struct {
	mu   sync.Mutex
	buf  []time.Duration
	next int
	n    int
}

func (l *latWindow) init(size int) { l.buf = make([]time.Duration, size) }

func (l *latWindow) record(d time.Duration) {
	l.mu.Lock()
	l.buf[l.next] = d
	l.next = (l.next + 1) % len(l.buf)
	if l.n < len(l.buf) {
		l.n++
	}
	l.mu.Unlock()
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of the recorded window, or 0
// when nothing has been recorded yet.
func (l *latWindow) quantile(q float64) time.Duration {
	l.mu.Lock()
	snap := make([]time.Duration, l.n)
	copy(snap, l.buf[:l.n])
	l.mu.Unlock()
	if len(snap) == 0 {
		return 0
	}
	sort.Slice(snap, func(i, j int) bool { return snap[i] < snap[j] })
	idx := int(q * float64(len(snap)-1))
	return snap[idx]
}

// BackendStats is one pool slot's occupancy and deployment estimate, as
// exported in Stats.Backends. Lanes is the slot's dispatch capacity —
// Pipeline × the frames its device model runs in the time of one — and
// LanesBusy how much of it staged and executing batches hold (one lane per
// frame, the whole width for a batch larger than that). QueueDepth counts
// frames the router has placed on the worker that have not started
// executing; InFlightFrames counts frames executing right now. Sim* fields
// price the traffic this slot served on its own device model.
type BackendStats struct {
	Worker  int    `json:"worker"`
	Backend string `json:"backend"`
	Breaker string `json:"breaker"`

	Lanes           int `json:"lanes"`
	LanesBusy       int `json:"lanes_busy"`
	QueueDepth      int `json:"queue_depth"`
	InFlightBatches int `json:"in_flight_batches"`
	InFlightFrames  int `json:"in_flight_frames"`

	Dispatched uint64 `json:"dispatched_batches"`
	Batches    uint64 `json:"batches"`
	Frames     uint64 `json:"frames"`

	SimFPS        float64 `json:"sim_fps"`
	SimWatts      float64 `json:"sim_watts"`
	SimFPSPerWatt float64 `json:"sim_fps_per_watt"`
}

// snapshotStats captures one worker's occupancy and accumulators. The pool
// totals in Stats are sums over these same snapshots, so the per-backend
// rows always add up to the pool-wide figures.
func (w *worker) snapshotStats(pipeline int) BackendStats {
	bs := BackendStats{
		Worker:          w.id,
		Backend:         w.kind,
		Breaker:         w.br.State().String(),
		Lanes:           pipeline * w.laneWidth(),
		LanesBusy:       int(w.busy.Load()),
		QueueDepth:      int(w.staged.Load()),
		InFlightBatches: int(w.inflight.Load()),
		InFlightFrames:  int(w.inflightFrames.Load()),
		Dispatched:      uint64(w.dispatched.Load()),
		Batches:         uint64(w.batches.Load()),
		Frames:          uint64(w.framesDone.Load()),
	}
	w.simMu.Lock()
	busy, joules, frames := w.simBusy, w.simJoules, w.simFrames
	w.simMu.Unlock()
	if busy > 0 {
		sec := busy.Seconds()
		bs.SimFPS = float64(frames) / sec
		bs.SimWatts = joules / sec
		if bs.SimWatts > 0 {
			bs.SimFPSPerWatt = bs.SimFPS / bs.SimWatts
		}
	}
	return bs
}

// Stats is a point-in-time snapshot of the serving tier, as exported by
// GET /statz. Sim* fields come from the discrete-event timing model: they
// estimate what the deployed board would sustain for the traffic served so
// far (the serving-side analog of the paper's 335.4 FPS / 11.81 FPS/W).
type Stats struct {
	Model      string  `json:"model"`
	InputShape [3]int  `json:"input_shape"` // C, H, W
	Runners    int     `json:"runners"`
	Threads    int     `json:"threads"`
	MaxBatch   int     `json:"max_batch"`
	MaxDelayMS float64 `json:"max_delay_ms"`
	// BatchWindowMS is the formation linger in force right now (see
	// batchWindow): min(MaxDelay, ServiceEWMAMS/8), 0 when that is under a
	// millisecond — no timer is armed — and MaxDelay until the first batch
	// completes. ServiceEWMAMS is the smoothed batch lane-hold time.
	BatchWindowMS float64 `json:"batch_window_ms"`
	ServiceEWMAMS float64 `json:"service_ewma_ms"`

	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
	InFlight   int `json:"in_flight_batches"`
	// Lanes, LanesBusy, StagedFrames and InFlightFrames are pool-wide sums
	// of the per-backend occupancy rows in Backends (dispatch capacity and
	// how much of it is held, routed-but-not-executing frames, and frames
	// executing right now).
	Lanes          int `json:"lanes"`
	LanesBusy      int `json:"lanes_busy"`
	StagedFrames   int `json:"staged_frames"`
	InFlightFrames int `json:"in_flight_frames"`

	Accepted  uint64 `json:"accepted"`
	Rejected  uint64 `json:"rejected"`
	Completed uint64 `json:"completed"`
	Expired   uint64 `json:"expired"`
	Failed    uint64 `json:"failed"`

	// Per-stage expiry breakdown (sums to Expired): dead on arrival at
	// admission, found dead at batch formation, found dead just before
	// dispatch. None of these consumed simulated board time.
	ExpiredAdmission uint64 `json:"expired_admission"`
	ExpiredQueue     uint64 `json:"expired_queue"`
	ExpiredDispatch  uint64 `json:"expired_dispatch"`

	Batches   uint64  `json:"batches"`
	MeanBatch float64 `json:"mean_batch_occupancy"`

	HealthyRunners   int    `json:"healthy_runners"`
	Evictions        uint64 `json:"evictions"`
	Probes           uint64 `json:"probes"`
	Redispatches     uint64 `json:"redispatches"`
	WatchdogTimeouts uint64 `json:"watchdog_timeouts"`

	P50LatencyMS float64 `json:"p50_latency_ms"`
	P99LatencyMS float64 `json:"p99_latency_ms"`

	SimFPS        float64 `json:"sim_fps"`
	SimWatts      float64 `json:"sim_watts"`
	SimFPSPerWatt float64 `json:"sim_fps_per_watt"`

	// Backends holds one occupancy row per pool slot; the pool totals
	// above (InFlight, Lanes, LanesBusy, StagedFrames, InFlightFrames) are
	// sums over these rows, so the per-backend figures always add up.
	Backends []BackendStats `json:"backends"`
}

// Stats snapshots the server counters. Concurrent mutation means the
// snapshot is consistent per field, not across fields.
func (s *Server) Stats() Stats {
	g := s.prog.Graph
	st := Stats{
		Model:      s.prog.Name,
		InputShape: [3]int{g.InC, g.InH, g.InW},
		Runners:    s.cfg.Runners,
		Threads:    s.cfg.Threads,
		MaxBatch:   s.cfg.MaxBatch,
		MaxDelayMS: float64(s.cfg.MaxDelay) / float64(time.Millisecond),
		QueueDepth: int(s.stats.depth.Load()),
		QueueCap:   s.cfg.QueueDepth,
		Accepted:   s.stats.accepted.Load(),
		Rejected:   s.stats.rejected.Load(),
		Completed:  s.stats.completed.Load(),
		Expired:    s.stats.expired.Load(),
		Failed:     s.stats.failed.Load(),
		Batches:    s.stats.batches.Load(),

		BatchWindowMS: float64(s.batchWindow()) / float64(time.Millisecond),
		ServiceEWMAMS: float64(s.serviceEWMA.Load()) / float64(time.Millisecond),

		ExpiredAdmission: s.stats.expiredAdmission.Load(),
		ExpiredQueue:     s.stats.expiredQueue.Load(),
		ExpiredDispatch:  s.stats.expiredDispatch.Load(),

		Evictions:        s.stats.evictions.Load(),
		Probes:           s.stats.probes.Load(),
		Redispatches:     s.stats.redispatched.Load(),
		WatchdogTimeouts: s.stats.watchdog.Load(),
	}
	st.Backends = make([]BackendStats, len(s.pool))
	for i, w := range s.pool {
		bs := w.snapshotStats(s.cfg.Pipeline)
		st.Backends[i] = bs
		st.InFlight += bs.InFlightBatches
		st.Lanes += bs.Lanes
		st.LanesBusy += bs.LanesBusy
		st.StagedFrames += bs.QueueDepth
		st.InFlightFrames += bs.InFlightFrames
		if bs.Breaker == breaker.Closed.String() {
			st.HealthyRunners++
		}
	}
	if st.Batches > 0 {
		st.MeanBatch = float64(s.stats.frames.Load()) / float64(st.Batches)
	}
	st.P50LatencyMS = float64(s.stats.lat.quantile(0.50)) / float64(time.Millisecond)
	st.P99LatencyMS = float64(s.stats.lat.quantile(0.99)) / float64(time.Millisecond)

	s.stats.mu.Lock()
	busy, joules, frames := s.stats.simBusy, s.stats.simJoules, s.stats.simFrames
	s.stats.mu.Unlock()
	if busy > 0 {
		sec := busy.Seconds()
		st.SimFPS = float64(frames) / sec
		st.SimWatts = joules / sec
		if st.SimWatts > 0 {
			st.SimFPSPerWatt = st.SimFPS / st.SimWatts
		}
	}
	return st
}
