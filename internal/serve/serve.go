// Package serve is the online deployment tier of the SENECA stack: it
// turns a pool of execution backends into an inference service that
// sustains heavy concurrent traffic the way the paper's evaluation
// sustains batch throughput (Section IV-B).
//
// Architecture, front to back:
//
//	HTTP front end      POST /v1/segment, GET /healthz, GET /statz
//	admission queue     bounded; overflow is rejected immediately with
//	                    explicit backpressure (HTTP 429 + Retry-After)
//	micro-batcher       coalesces queued requests up to MaxBatch: for as
//	                    long as no runner has the frame lanes for the batch,
//	                    and for at most min(MaxDelay, batch service time / 8)
//	                    past the head's admission — not at all when that is
//	                    under the millisecond a timer can keep. A runner has
//	                    as many lanes as its device model runs frames in the
//	                    time of one (2 on the dual-core dpu-sim); a batch
//	                    holds one lane per frame or, when larger, the whole
//	                    runner — so lone requests run side by side instead
//	                    of queueing behind each other, and a backlog still
//	                    goes through in full batches
//	backend pool        batches route to a heterogeneous pool of
//	                    internal/backend executors (dpu-sim, cpu-int8,
//	                    gpu-sim — see Config.Backends) by a cost model:
//	                    each backend predicts latency and energy for the
//	                    batch, and backend.Route places it under the
//	                    configured latency SLO and energy budget, falling
//	                    back to least-loaded on ties. Every backend
//	                    executes functionally (bit-accurate INT8 masks, so
//	                    results never depend on placement) and accumulates
//	                    simulated FPS/W per kind. Frames draw scratch
//	                    arenas from pooled executors, so concurrent batches
//	                    allocate nothing per layer; the INT8 layer loops
//	                    draw extra workers only from internal/par's global
//	                    budget, beside each batch's frame workers
//
// Every request carries a context.Context: deadlines expire work that is
// still queued, and Shutdown drains everything already admitted without
// dropping it. serve.Stats exposes the queue, latency quantiles, batch
// occupancy and per-backend occupancy plus the discrete-event deployment
// estimate, per kind and pool-wide.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"seneca/internal/backend"
	"seneca/internal/breaker"
	"seneca/internal/dpu"
	"seneca/internal/obs"
	"seneca/internal/tensor"
	"seneca/internal/xmodel"
)

// Config tunes the serving tier. The zero value is usable: every field
// defaults to the values noted below.
type Config struct {
	// Runners is the number of executor instances in the dispatch pool
	// (each models one deployed runtime process). When Backends is set it
	// is ignored: the pool size comes from the spec. Default 1.
	Runners int
	// Backends is the heterogeneous pool specification: a comma-separated
	// list of "kind" or "kind:count" entries drawn from backend.Kinds(),
	// e.g. "dpu-sim:2,cpu-int8,gpu-sim". Empty means a homogeneous
	// "dpu-sim:Runners" pool — the pre-heterogeneous behaviour.
	Backends string
	// LatencySLO is the router's per-batch latency objective: when some
	// healthy backend is predicted to finish a batch within it, the router
	// optimizes energy among those backends instead of raw completion
	// time. 0 (default) disables the objective.
	LatencySLO time.Duration
	// EnergyBudget caps the router's predicted joules per frame: backends
	// over budget only take traffic when no within-budget backend is
	// healthy. 0 (default) disables the budget.
	EnergyBudget float64
	// Threads is the host submission thread count per runner (the paper
	// deploys 4). It also bounds a runner's width — the frame lanes it
	// dispatches on: as many frames as its device model runs in the time of
	// one, at most Threads and at most GOMAXPROCS. dpu-sim, with two DPU
	// cores, is 2 wide from Threads 2 up and 1 wide at Threads 1; cpu-int8
	// and gpu-sim price frames back to back and are 1 wide. Default 4.
	Threads int
	// Pipeline multiplies a runner's lanes: it dispatches Pipeline × width
	// of them. A batch holds one lane per frame, or one whole width when it
	// has more frames than that, so at 1 lone requests run side by side and
	// a larger batch owns the runner; 2 also lets two full batches overlap
	// (host pre/post-processing against accelerator execution). Default 1.
	Pipeline int
	// MaxBatch caps the micro-batch size. Default 8.
	MaxBatch int
	// MaxDelay is the ceiling on how long the batcher holds a request back,
	// with lanes free to run it, for the batch to fill. The wait actually
	// used is an eighth of the measured batch service time, capped here and
	// dropped altogether under 1 ms, the shortest wait the runtime's timers
	// keep (see batchWindow); a server that has not completed a batch yet
	// waits MaxDelay. While no runner has the lanes the batch fills for
	// free. Default 2ms.
	MaxDelay time.Duration
	// QueueDepth bounds the admission queue; requests beyond it are
	// rejected with ErrQueueFull (HTTP 429). Default 64.
	QueueDepth int
	// Timeout is the per-request deadline applied on admission, on top of
	// whatever deadline the client context carries. 0 means none.
	Timeout time.Duration
	// Seed controls simulated measurement jitter (0 = deterministic).
	Seed int64
	// SimPace, when positive, paces every dispatched batch to SimPace ×
	// its simulated duration on the modelled board: the dispatch holds its
	// lanes (sleeping, not computing) until that much wall time has passed,
	// so the server's real-time throughput tracks the discrete-event
	// deployment estimate instead of host CPU speed. 1 replays the
	// simulated board in real time; larger values model a proportionally
	// slower board or heavier model. 0 (default) disables pacing. Paced
	// replicas sleep through most of their batch window, which is what
	// lets a multi-node cluster on one host machine scale real goodput.
	SimPace float64
	// BreakerThreshold is how many consecutive batch failures trip one
	// runner's circuit breaker: the runner is evicted, a fresh one is built
	// from the retained device and program, and the breaker opens for
	// BreakerCooldown before a half-open probe. Default 3.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker rejects traffic before
	// admitting a single half-open probe batch. Default 500ms.
	BreakerCooldown time.Duration
	// WatchdogTimeout bounds one batch's execution on a runner; past it the
	// batch is reclaimed (jobs re-queued) and the stall counts as a breaker
	// failure. Default 30s.
	WatchdogTimeout time.Duration
	// MaxRedispatch is how many times one job may ride a failed or stalled
	// batch back into the queue before its error surfaces to the client.
	// Default 3.
	MaxRedispatch int
	// MaxBodyBytes caps HTTP request bodies; an over-cap upload is rejected
	// with 413. Default 256 MiB.
	MaxBodyBytes int64
	// Brownout programs the quality-degradation controller. Only the
	// VariantFront consumes it (a single-variant Server has no ladder to
	// walk); nil disables brownout.
	Brownout *BrownoutConfig
	// Metrics is the observability registry the server reports into (and
	// that GET /metrics serves). nil gives the server a private registry;
	// pass obs.Default to merge the serving series with the pipeline
	// stage timers into one scrape.
	Metrics *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.Runners <= 0 {
		c.Runners = 1
	}
	if c.Threads <= 0 {
		c.Threads = 4
	}
	if c.Pipeline <= 0 {
		c.Pipeline = 1
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 8
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Millisecond
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 500 * time.Millisecond
	}
	if c.WatchdogTimeout <= 0 {
		c.WatchdogTimeout = 30 * time.Second
	}
	if c.MaxRedispatch <= 0 {
		c.MaxRedispatch = 3
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = maxBodyBytes
	}
	return c
}

// Admission errors.
var (
	// ErrQueueFull reports that the admission queue is at capacity; the
	// HTTP layer maps it to 429 with a Retry-After hint.
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrDraining reports that Shutdown has begun and the server admits no
	// new work; the HTTP layer maps it to 503.
	ErrDraining = errors.New("serve: server is draining")
	// ErrStalled reports that a runner held a batch past WatchdogTimeout.
	// The batch is reclaimed and its jobs re-dispatched; clients only see
	// this error once a job's redispatch budget is spent.
	ErrStalled = errors.New("serve: runner stalled past the watchdog deadline")
	// ErrExpiredInQueue reports that a request's context expired or was
	// cancelled after admission but before execution — at batch formation
	// or just before dispatch. The job is dropped without consuming any
	// simulated board time. Errors carrying it also wrap the underlying
	// context error, so errors.Is(err, context.DeadlineExceeded) and
	// errors.Is(err, context.Canceled) both keep working.
	ErrExpiredInQueue = errors.New("serve: request expired while queued")
)

// Server is the micro-batching inference service over one compiled
// program. Construct with New, release with Shutdown.
type Server struct {
	cfg  Config
	dev  *dpu.Device
	prog *xmodel.Program

	queue chan *job
	// freed wakes batchLoop when a dispatch returns its lanes (release).
	// Capacity lives on the workers; this only carries the news, and one
	// pending wake-up is enough because the loop looks at every worker.
	freed  chan struct{}
	pool   []*worker
	router backend.RouterConfig

	mu      sync.Mutex // serializes closing against queue sends
	closing bool

	batcher  sync.WaitGroup // the batchLoop goroutine
	inflight sync.WaitGroup // dispatched batches

	stats stats
	seq   atomic.Int64 // batch sequence number, perturbs the sim seed
	// serviceEWMA smooths how long a successful batch holds its lanes, in
	// nanoseconds; 0 until the first one completes. batchWindow derives the
	// formation linger from it.
	serviceEWMA atomic.Int64

	reg        *obs.Registry
	mLatency   *obs.Histogram
	mOccupancy *obs.Histogram

	frameLatency time.Duration // single-frame single-core latency
}

// job is one admitted request travelling through the queue.
type job struct {
	ctx      context.Context
	img      *tensor.Tensor
	accepted time.Time
	done     chan outcome
	// redispatches counts how many failed or stalled batches this job has
	// ridden. Only the goroutine currently owning the job touches it (the
	// queue handoff orders the accesses), so it needs no atomics.
	redispatches int
}

// outcome is the terminal state of a job.
type outcome struct {
	mask  []uint8
	batch int // occupancy of the batch the job rode in
	err   error
}

// New builds a server over a device and a compiled program and starts its
// batching loop. Callers must Shutdown to stop it. Config.Backends selects
// the pool composition; empty reproduces the homogeneous dpu-sim pool of
// size Config.Runners.
func New(dev *dpu.Device, prog *xmodel.Program, cfg Config) (*Server, error) {
	if dev == nil {
		return nil, errors.New("serve: nil device")
	}
	if prog == nil {
		return nil, errors.New("serve: nil program")
	}
	cfg = cfg.withDefaults()
	spec := cfg.Backends
	if spec == "" {
		spec = fmt.Sprintf("%s:%d", backend.KindDPUSim, cfg.Runners)
	}
	kinds, err := backend.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	cfg.Runners = len(kinds)
	s := &Server{
		cfg:          cfg,
		dev:          dev,
		prog:         prog,
		router:       backend.RouterConfig{LatencySLO: cfg.LatencySLO, EnergyBudget: cfg.EnergyBudget},
		queue:        make(chan *job, cfg.QueueDepth),
		freed:        make(chan struct{}, 1),
		frameLatency: dev.TimeFrame(prog).Latency,
	}
	opt := backend.Options{Threads: cfg.Threads}
	for i, kind := range kinds {
		kind := kind
		be, err := backend.New(kind, dev, prog, opt)
		if err != nil {
			return nil, fmt.Errorf("serve: pool slot %d: %w", i, err)
		}
		mk := func() backend.Backend {
			nb, err := backend.New(kind, dev, prog, opt)
			if err != nil {
				return nil // cannot happen: the first build above succeeded
			}
			return nb
		}
		w := &worker{id: i, kind: kind, mk: mk, br: breaker.New(cfg.BreakerThreshold, cfg.BreakerCooldown)}
		w.adopt(be, cfg.Threads)
		s.pool = append(s.pool, w)
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s.initMetrics(reg)
	s.batcher.Add(1)
	go s.batchLoop()
	return s, nil
}

// Submit admits one CHW image and blocks until its mask is ready, the
// context expires, or admission is refused (ErrQueueFull, ErrDraining).
// It is the in-process equivalent of POST /v1/segment and is safe for
// arbitrary concurrent use.
func (s *Server) Submit(ctx context.Context, img *tensor.Tensor) ([]uint8, error) {
	mask, _, err := s.submit(ctx, img)
	return mask, err
}

// Segment is Submit plus the occupancy of the micro-batch the request rode
// in (what the HTTP layer reports as X-Seneca-Batch). The cluster router
// uses it to forward occupancy end-to-end through the front door.
func (s *Server) Segment(ctx context.Context, img *tensor.Tensor) (mask []uint8, occupancy int, err error) {
	return s.submit(ctx, img)
}

// QueueDepth returns the number of requests currently waiting in the
// admission queue — the load signal the cluster's placement and autoscaler
// steer by. One atomic load; safe on hot paths.
func (s *Server) QueueDepth() int { return int(s.stats.depth.Load()) }

// QueueCap returns the configured admission queue capacity.
func (s *Server) QueueCap() int { return s.cfg.QueueDepth }

// InFlightBatches returns how many micro-batches are currently executing
// on the runner pool.
func (s *Server) InFlightBatches() int {
	var n int32
	for _, w := range s.pool {
		n += w.inflight.Load()
	}
	return int(n)
}

// ModelName returns the name of the served compiled program.
func (s *Server) ModelName() string { return s.prog.Name }

func (s *Server) submit(ctx context.Context, img *tensor.Tensor) ([]uint8, int, error) {
	g := s.prog.Graph
	if img == nil || img.Rank() != 3 || img.Dim(0) != g.InC || img.Dim(1) != g.InH || img.Dim(2) != g.InW {
		shape := "<nil>"
		if img != nil {
			shape = fmt.Sprint(img.Shape)
		}
		return nil, 0, fmt.Errorf("serve: input shape %s, want [%d %d %d]", shape, g.InC, g.InH, g.InW)
	}
	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
		defer cancel()
	}
	// A dead context is rejected at the door: admitting it would burn a
	// queue slot (and possibly a batch seat) on a request whose client has
	// already given up.
	if err := ctx.Err(); err != nil {
		s.stats.expired.Add(1)
		s.stats.expiredAdmission.Add(1)
		return nil, 0, err
	}
	j := &job{ctx: ctx, img: img, accepted: time.Now(), done: make(chan outcome, 1)}
	if err := s.enqueue(j, &s.stats.accepted); err != nil {
		if err == ErrQueueFull {
			s.stats.rejected.Add(1)
		}
		return nil, 0, err
	}

	select {
	case out := <-j.done:
		return out.mask, out.batch, out.err
	case <-ctx.Done():
		// The executor also watches j.ctx and will discard the job; its
		// buffered done channel means nobody blocks on us.
		return nil, 0, ctx.Err()
	}
}

// enqueue puts a job on the admission queue — a new one (counted as
// accepted) or a redispatched one — or refuses it with ErrDraining or
// ErrQueueFull. The job is counted (counter, queue depth) before it is on the
// queue, like every other outcome: counted after, the batcher could dequeue it
// (and its client return) before the counters moved, and /statz could read a
// negative queue depth or more requests completed than accepted. Counting
// first must not be wrong, so the send must not fail and nothing is ever
// counted back: under s.mu no other enqueue is between its check and its
// send, and the batcher only takes from the queue — room seen is room kept.
func (s *Server) enqueue(j *job, counter *atomic.Uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing {
		return ErrDraining
	}
	if len(s.queue) == cap(s.queue) {
		return ErrQueueFull
	}
	counter.Add(1)
	s.stats.depth.Add(1)
	s.queue <- j
	return nil
}

// RetryAfter estimates how long a rejected client should back off: the
// simulated time to drain a full queue across the deployed cores.
func (s *Server) RetryAfter() time.Duration {
	perCore := s.cfg.Runners * s.dev.Cfg.Cores
	if perCore < 1 {
		perCore = 1
	}
	d := time.Duration(int64(s.frameLatency) * int64(s.cfg.QueueDepth) / int64(perCore))
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// Shutdown stops admitting new requests, drains every request already in
// the queue, waits for in-flight batches, and returns. It never drops
// admitted work; ctx bounds only how long the caller is willing to wait.
// Shutdown is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closing {
		s.closing = true
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.batcher.Wait()
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closing
}

// InputShape returns the CHW input geometry of the served model.
func (s *Server) InputShape() (c, h, w int) {
	g := s.prog.Graph
	return g.InC, g.InH, g.InW
}

// NumClasses returns the class count of the served model's output masks.
func (s *Server) NumClasses() int { return s.prog.Graph.NumClasses }
