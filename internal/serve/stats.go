package serve

import (
	"sync/atomic"
	"time"

	"seneca/internal/energy"
)

// stats is the server's internal counter block; every field is an atomic.
// What the runners did is not here: each worker's row holds it, and every
// pool total is a sum of rows (Server.rows).
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
	batches          atomic.Uint64 // batches that completed successfully
	depth            atomic.Int64  // current queue depth

	// Self-healing counters (see health.go): runners replaced after a
	// breaker trip, half-open probe batches, jobs re-queued out of failed
	// batches, and batches reclaimed by the watchdog.
	evictions    atomic.Uint64
	probes       atomic.Uint64
	redispatched atomic.Uint64
	watchdog     atomic.Uint64
}

// BackendStats is one pool slot's occupancy and deployment estimate, as
// exported in Stats.Backends. Lanes is the slot's dispatch capacity —
// Pipeline × the frames its device model runs in the time of one — and
// LanesBusy how much of it staged and executing batches hold (one lane per
// frame, the whole width for a batch larger than that). QueueDepth counts
// frames the router has placed on the worker that have not started
// executing; InFlightFrames counts frames executing right now. Frames and the
// Sim* fields read the slot's served report: the frames it completed, priced
// on its own device model.
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

	served energy.Report
}

// priced fills the fields a row derives from its served report.
func (b BackendStats) priced() BackendStats {
	b.Frames = uint64(b.served.Frames)
	b.SimFPS, b.SimWatts, b.SimFPSPerWatt = b.served.FPS(), b.served.Watts(), b.served.EnergyEfficiency()
	return b
}

// rows snapshots the given workers, one row each, and sums the rows:
// occupancy and counters field by field, the served reports into one report
// priced like a row's, and the healthy runners counted. It is the only place
// a pool or per-kind total is made, so no total can disagree with the rows
// under it.
func (s *Server) rows(ws []*worker) (rows []BackendStats, sum BackendStats, healthy int) {
	rows = make([]BackendStats, len(ws))
	for i, w := range ws {
		w.mu.Lock()
		width, served := w.width, w.served
		w.mu.Unlock()
		r := BackendStats{
			Worker:          w.id,
			Backend:         w.kind,
			Breaker:         w.br.State().String(),
			Lanes:           s.cfg.Pipeline * width,
			LanesBusy:       int(w.busy.Load()),
			QueueDepth:      int(w.staged.Load()),
			InFlightBatches: int(w.inflight.Load()),
			InFlightFrames:  int(w.inflightFrames.Load()),
			Dispatched:      uint64(w.dispatched.Load()),
			Batches:         uint64(w.batches.Load()),
			served:          served,
		}.priced()
		rows[i] = r
		sum.Lanes += r.Lanes
		sum.LanesBusy += r.LanesBusy
		sum.QueueDepth += r.QueueDepth
		sum.InFlightBatches += r.InFlightBatches
		sum.InFlightFrames += r.InFlightFrames
		sum.Dispatched += r.Dispatched
		sum.Batches += r.Batches
		sum.served = sum.served.Add(served)
		if w.healthy() {
			healthy++
		}
	}
	return rows, sum.priced(), healthy
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

	// P50LatencyMS and P99LatencyMS cover every request since the server
	// started: they are read from the seneca_serve_request_latency_seconds
	// histogram that /metrics exposes.
	P50LatencyMS float64 `json:"p50_latency_ms"`
	P99LatencyMS float64 `json:"p99_latency_ms"`

	SimFPS        float64 `json:"sim_fps"`
	SimWatts      float64 `json:"sim_watts"`
	SimFPSPerWatt float64 `json:"sim_fps_per_watt"`

	// Backends holds one row per pool slot. Every pool total above that
	// describes the runners — InFlight, Lanes, LanesBusy, StagedFrames,
	// InFlightFrames, HealthyRunners, MeanBatch's frames and the Sim* figures
	// — is a sum over these rows (Server.rows), so the rows always add up.
	Backends []BackendStats `json:"backends"`
}

// Stats snapshots the server counters. Concurrent mutation means the
// snapshot is consistent per field, not across fields — except that outcomes
// are read before admissions: a completion, failure or in-queue expiry is
// counted after its admission, so no snapshot shows more of them than
// requests accepted.
func (s *Server) Stats() Stats {
	g := s.prog.Graph
	rows, sum, healthy := s.rows(s.pool)
	completed, expired, failed := s.stats.completed.Load(), s.stats.expired.Load(), s.stats.failed.Load()
	lat := s.mLatency.Quantiles(0.50, 0.99)
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
		Completed:  completed,
		Expired:    expired,
		Failed:     failed,
		Batches:    s.stats.batches.Load(),

		BatchWindowMS: float64(s.batchWindow()) / float64(time.Millisecond),
		ServiceEWMAMS: float64(s.serviceEWMA.Load()) / float64(time.Millisecond),

		InFlight:       sum.InFlightBatches,
		Lanes:          sum.Lanes,
		LanesBusy:      sum.LanesBusy,
		StagedFrames:   sum.QueueDepth,
		InFlightFrames: sum.InFlightFrames,

		ExpiredAdmission: s.stats.expiredAdmission.Load(),
		ExpiredQueue:     s.stats.expiredQueue.Load(),
		ExpiredDispatch:  s.stats.expiredDispatch.Load(),

		HealthyRunners:   healthy,
		Evictions:        s.stats.evictions.Load(),
		Probes:           s.stats.probes.Load(),
		Redispatches:     s.stats.redispatched.Load(),
		WatchdogTimeouts: s.stats.watchdog.Load(),

		P50LatencyMS: 1e3 * lat[0],
		P99LatencyMS: 1e3 * lat[1],

		SimFPS:        sum.SimFPS,
		SimWatts:      sum.SimWatts,
		SimFPSPerWatt: sum.SimFPSPerWatt,

		Backends: rows,
	}
	if st.Batches > 0 {
		st.MeanBatch = float64(sum.Frames) / float64(st.Batches)
	}
	return st
}
