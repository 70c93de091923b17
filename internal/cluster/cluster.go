// Package cluster is the multi-node scale-out tier of the SENECA stack: a
// front-door router that spreads segmentation traffic across a fleet of
// in-process serve.Server replicas ("nodes" — each models one deployed
// edge board with its own runner pool, admission queue and self-healing
// breakers), the direct path from the paper's single ZCU104 to the
// ROADMAP's millions-of-users north star.
//
// Architecture, front to back:
//
//	HTTP front door    POST /v1/segment (X-Seneca-Tier, X-Seneca-Key),
//	                   GET /healthz, /statz, /metrics,
//	                   POST /v1/admin/rolling-restart
//	placement          pluggable: consistent-hash on the request key
//	                   (64 vnodes/slot) or least-loaded by queue depth
//	tier admission     two priorities per node — interactive requests may
//	                   fill the whole admission queue, batch (study slice)
//	                   traffic only up to BatchWaterFrac of it, so
//	                   interactive preempts batch and batch always sheds
//	                   first
//	health view        consecutive dispatch failures eject a node from
//	                   routing; after EjectCooldown one probe request
//	                   tests it back in (the per-runner breaker of PR 5,
//	                   generalized to the replica level)
//	autoscaler         queue-depth-driven: aggregate depth above the
//	                   high-water fraction for SustainWindow spawns a
//	                   replica (up to MaxNodes); below the low-water
//	                   fraction it drains and retires one (down to
//	                   MinNodes)
//	load shedding      a fleet with no admitting node rejects with
//	                   ErrSaturated → HTTP 429 + Retry-After
//
// Interactive requests carrying a deadline may hedge: past HedgeFraction
// of the remaining deadline a second dispatch launches on a different
// healthy node, first response wins and the loser is cancelled (its queued
// job is dropped by the serve tier before consuming board time). Retries
// and hedges share a per-window SRE-style retry budget so a sick fleet
// cannot melt itself with a retry storm.
//
// Every dispatch consults the fault point "cluster.node.dispatch" plus a
// per-slot "cluster.node.serve.<slot>", so chaos tests can kill a node
// mid-burst — or make exactly one node tail-latency slow (fault slow=
// programs) — and assert that redispatch and hedging lose nothing.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"seneca/internal/breaker"
	"seneca/internal/fault"
	"seneca/internal/obs"
	"seneca/internal/serve"
	"seneca/internal/tensor"
)

// Tier is a request's admission priority.
type Tier int

// Admission tiers. Interactive requests (POST /v1/segment) may fill a
// node's whole admission queue; batch requests (study slice fan-out) only
// its lower BatchWaterFrac, so under pressure batch sheds strictly before
// interactive.
const (
	TierInteractive Tier = iota
	TierBatch
)

// String returns the lowercase tier name used in metrics labels.
func (t Tier) String() string {
	if t == TierBatch {
		return "batch"
	}
	return "interactive"
}

// Admission errors. Each wraps the serve-tier sentinel it stands for, so the
// one /v1/segment error ladder (serve.Door) answers for the fleet too.
var (
	// ErrSaturated reports that no node in the fleet can admit the request
	// at its tier; it is a serve.ErrQueueFull (429 with a Retry-After hint).
	ErrSaturated = fmt.Errorf("cluster: fleet saturated: %w", serve.ErrQueueFull)
	// ErrDraining reports that Shutdown has begun and the cluster admits
	// no new work; it is a serve.ErrDraining (503).
	ErrDraining = fmt.Errorf("cluster: cluster is draining: %w", serve.ErrDraining)
)

// Config tunes the cluster. The zero value is usable: every field defaults
// to the values noted below.
type Config struct {
	// MinNodes is the floor the autoscaler never drains below (and the
	// fleet size at startup). Default 1.
	MinNodes int
	// MaxNodes caps the fleet. Default max(MinNodes, 4).
	MaxNodes int
	// Placement selects the routing policy. Default PolicyLeastLoaded.
	Placement Policy
	// HighWaterFrac: aggregate queue depth above this fraction of
	// aggregate capacity, sustained for SustainWindow, spawns a node.
	// Default 0.75.
	HighWaterFrac float64
	// LowWaterFrac: aggregate depth below this fraction, sustained,
	// retires a node. Default 0.10.
	LowWaterFrac float64
	// SustainWindow is how long a water mark must hold before the
	// autoscaler acts. Default 250ms.
	SustainWindow time.Duration
	// ScaleCooldown is the minimum gap between scaling actions. Default 1s.
	ScaleCooldown time.Duration
	// EvalInterval is the autoscaler's sampling period. Default 25ms.
	EvalInterval time.Duration
	// BatchWaterFrac is the per-node queue fraction batch traffic may
	// occupy; the rest is reserved for interactive. Default 0.5.
	BatchWaterFrac float64
	// FailThreshold is how many consecutive dispatch failures eject a node
	// from routing. Default 3.
	FailThreshold int
	// EjectCooldown is how long an ejected node waits before a probe
	// request tests it back in. Default 500ms.
	EjectCooldown time.Duration
	// MaxAttempts bounds how many nodes one request may be dispatched to
	// before its error surfaces. Default 3.
	MaxAttempts int
	// HedgeFraction enables cross-node hedging of interactive requests:
	// one still waiting after this fraction of its remaining deadline gets
	// a second dispatch to a different healthy node, first response wins,
	// loser cancelled. 0 (default) disables hedging. Sensible values sit
	// around 0.2–0.5: small enough to rescue the deadline, large enough
	// that the common case never pays for two dispatches.
	HedgeFraction float64
	// HedgeAfter is the hedge threshold for interactive requests that
	// carry no deadline, when HedgeFraction is set. 0 (default) means
	// deadline-less requests never hedge.
	HedgeAfter time.Duration
	// RetryBudgetFrac bounds retries and hedges per RetryBudgetWindow to
	// this fraction of admitted requests (with a RetryBudgetMin floor), so
	// a sick fleet cannot multiply its own load with a retry storm.
	// Default 0.1.
	RetryBudgetFrac float64
	// RetryBudgetMin is the per-window retry floor, so low traffic can
	// still retry at all. Default 10.
	RetryBudgetMin int
	// RetryBudgetWindow is the budget accounting window. Default 10s.
	RetryBudgetWindow time.Duration
	// MaxBodyBytes caps HTTP request bodies on the front door. Default
	// 256 MiB.
	MaxBodyBytes int64
	// Metrics is the observability registry the cluster reports into. nil
	// gives the cluster a private registry.
	Metrics *obs.Registry
	// Faults is the fault-injection registry the dispatch path consults.
	// nil uses fault.Default.
	Faults *fault.Registry
}

func (c Config) withDefaults() Config {
	if c.MinNodes <= 0 {
		c.MinNodes = 1
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 4
	}
	if c.MaxNodes < c.MinNodes {
		c.MaxNodes = c.MinNodes
	}
	if c.Placement == "" {
		c.Placement = PolicyLeastLoaded
	}
	if c.HighWaterFrac <= 0 || c.HighWaterFrac > 1 {
		c.HighWaterFrac = 0.75
	}
	if c.LowWaterFrac <= 0 || c.LowWaterFrac >= c.HighWaterFrac {
		c.LowWaterFrac = 0.10
	}
	if c.SustainWindow <= 0 {
		c.SustainWindow = 250 * time.Millisecond
	}
	if c.ScaleCooldown <= 0 {
		c.ScaleCooldown = time.Second
	}
	if c.EvalInterval <= 0 {
		c.EvalInterval = 25 * time.Millisecond
	}
	if c.BatchWaterFrac <= 0 || c.BatchWaterFrac > 1 {
		c.BatchWaterFrac = 0.5
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.EjectCooldown <= 0 {
		c.EjectCooldown = 500 * time.Millisecond
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBudgetFrac <= 0 {
		c.RetryBudgetFrac = 0.1
	}
	if c.RetryBudgetMin <= 0 {
		c.RetryBudgetMin = 10
	}
	if c.RetryBudgetWindow <= 0 {
		c.RetryBudgetWindow = 10 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 256 << 20
	}
	return c
}

// Result is one completed dispatch: the mask, the micro-batch occupancy it
// rode in on its node, the slot of the node that served it, and whether a
// hedge leg was launched for it.
type Result struct {
	Mask      []uint8
	Occupancy int
	Node      int
	Hedged    bool
}

// Cluster is the sharded serving fleet. Construct with New, release with
// Shutdown.
type Cluster struct {
	cfg     Config
	factory func() (*serve.Server, error)
	faults  *fault.Registry
	budget  *retryBudget

	// nodePoints[i] is the per-slot fault point name consulted before each
	// dispatch to slot i ("cluster.node.serve.<slot>"), precomputed so the
	// hot path never formats strings.
	nodePoints []string

	mu      sync.RWMutex
	slots   []*node // fixed MaxNodes slots; nil = empty
	ring    *ring   // consistent-hash snapshot, rebuilt on topology change
	nextGen int
	closing bool

	restartMu sync.Mutex // serializes rolling restarts

	submits  sync.WaitGroup // dispatches in flight through the front door
	owned    sync.WaitGroup // goroutines started by goLocked: drains, admin restarts
	ctlStop  chan struct{}
	ctlDone  sync.WaitGroup
	stopOnce sync.Once

	stats clusterStats
	reg   *obs.Registry

	mLatency    [2]*obs.Histogram // by Tier
	mRouteDepth *obs.Histogram

	// Model geometry, captured from the first node so the HTTP front door
	// decodes without binding to any replica.
	inC, inH, inW int
	classes       int
	model         string
	nodeQueueCap  int
	batchWater    int // absolute per-node load bound for batch admission
}

// New builds a fleet of cfg.MinNodes replicas via factory (each call must
// return a fresh, started serve.Server — one per simulated board) and
// starts the autoscaler. Callers must Shutdown to stop it.
func New(factory func() (*serve.Server, error), cfg Config) (*Cluster, error) {
	if factory == nil {
		return nil, errors.New("cluster: nil node factory")
	}
	cfg = cfg.withDefaults()
	c := &Cluster{
		cfg:     cfg,
		factory: factory,
		faults:  cfg.Faults,
		budget:  newRetryBudget(cfg.RetryBudgetFrac, cfg.RetryBudgetMin, cfg.RetryBudgetWindow),
		slots:   make([]*node, cfg.MaxNodes),
		ctlStop: make(chan struct{}),
	}
	if c.faults == nil {
		c.faults = fault.Default
	}
	c.nodePoints = make([]string, cfg.MaxNodes)
	for i := range c.nodePoints {
		c.nodePoints[i] = "cluster.node.serve." + strconv.Itoa(i)
	}
	for i := 0; i < cfg.MinNodes; i++ {
		if err := c.spawn(); err != nil {
			// Unwind the partial fleet before reporting.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			for _, n := range c.slots {
				if n != nil {
					n.srv.Shutdown(ctx)
				}
			}
			return nil, err
		}
	}
	first := c.slots[0].srv
	c.inC, c.inH, c.inW = first.InputShape()
	c.classes = first.NumClasses()
	c.model = first.ModelName()
	c.nodeQueueCap = first.QueueCap()
	c.batchWater = int(cfg.BatchWaterFrac * float64(c.nodeQueueCap))
	if c.batchWater < 1 {
		c.batchWater = 1
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	c.initMetrics(reg)
	c.ctlDone.Add(1)
	go c.controlLoop()
	return c, nil
}

// spawn builds one replica into the lowest empty slot and rebuilds the
// ring. Callers must not hold c.mu (the factory may be slow).
func (c *Cluster) spawn() error {
	srv, err := c.factory()
	if err != nil {
		return err
	}
	c.mu.Lock()
	err = ErrDraining
	if !c.closing {
		err = errors.New("cluster: fleet already at MaxNodes")
		for i, n := range c.slots {
			if n == nil {
				c.install(i, srv)
				c.mu.Unlock()
				return nil
			}
		}
	}
	c.mu.Unlock()
	// Shutdown has begun (it has already collected the nodes it drains), or
	// racing scale-ups filled the fleet: discard the replica. It has never
	// taken a request, so its shutdown is immediate.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
	return err
}

// goLocked runs f on a goroutine Shutdown waits for, and reports whether it
// did. Once Shutdown has begun it starts nothing — Shutdown may already be
// waiting — and the caller leaves the work to Shutdown. Callers hold c.mu,
// which orders the check against Shutdown's.
func (c *Cluster) goLocked(f func()) bool {
	if c.closing {
		return false
	}
	c.owned.Add(1)
	go func() {
		defer c.owned.Done()
		f()
	}()
	return true
}

// Do dispatches one request through placement, tier admission and the
// per-node health view. key selects the consistent-hash position under
// PolicyHash ("" falls back to least-loaded). A node that fails mid-burst
// is ejected and the request redispatches to a healthy node, up to
// MaxAttempts (gated by the fleet retry budget); a fleet with no admitting
// node sheds with ErrSaturated. Interactive requests with a deadline may
// hedge onto a second node when HedgeFraction is set — see dispatch.
func (c *Cluster) Do(ctx context.Context, img *tensor.Tensor, key string, tier Tier) (Result, error) {
	c.mu.RLock()
	if c.closing {
		c.mu.RUnlock()
		return Result{}, ErrDraining
	}
	c.submits.Add(1)
	c.mu.RUnlock()
	defer c.submits.Done()

	t0 := time.Now()
	c.stats.submitted[tier].Add(1)
	c.budget.noteRequest()
	res, hedged, err := c.dispatch(ctx, img, key, tier)
	res.Hedged = hedged
	switch {
	case err == nil:
		c.stats.goodput[tier].Add(1)
		c.mLatency[tier].Observe(time.Since(t0).Seconds())
		return res, nil
	case ctx.Err() != nil && (errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)):
		// The client's own deadline or disconnect, not a fleet refusal.
		return Result{}, err
	default:
		c.stats.shed[tier].Add(1)
		return Result{}, err
	}
}

// dispatchOnce runs one dispatch leg: placement, tier admission, health
// charging and budgeted failure redispatch, with no tier accounting (Do
// does that exactly once however many legs ran). self, when non-nil, is
// updated with the slot the leg is currently dispatched to; avoid, when
// non-nil, names a leg whose current node is hard-excluded from placement
// — that is how a hedge lands on a different node than its primary.
func (c *Cluster) dispatchOnce(ctx context.Context, img *tensor.Tensor, key string, tier Tier, self, avoid *leg) (Result, error) {
	skip := make(map[*node]bool)
	// pickNode widens the search before giving up: once every node has
	// been tried this dispatch, the skip set resets so redispatch may
	// revisit a node (its queue may have drained, its probe may be due).
	// The avoid leg's node survives every reset.
	pickNode := func() (*node, bool) {
		n, probe := c.pick(key, tier, skip, avoid.slot())
		if n == nil && len(skip) > 0 {
			skip = make(map[*node]bool)
			n, probe = c.pick(key, tier, skip, avoid.slot())
		}
		return n, probe
	}
	// With every node ejected and cooling, the only way the fleet regains
	// capacity is a probe — the same reasoning as the serve tier's
	// probePoll. Waiting for one is bounded by maxWait and the
	// context; past that, load shedding takes over.
	maxWait := time.Duration(c.cfg.MaxAttempts) * c.cfg.EjectCooldown
	var waited time.Duration
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		n, probe := pickNode()
		if n == nil {
			if eta, anyEjected := c.probeEta(time.Now()); anyEjected && waited < maxWait {
				if rem := maxWait - waited; eta > rem {
					eta = rem
				}
				waited += eta
				timer := time.NewTimer(eta)
				select {
				case <-timer.C:
				case <-ctx.Done():
					timer.Stop()
					return Result{}, ctx.Err()
				}
				attempt-- // waiting for a probe is not a dispatch attempt
				continue
			}
			// Nothing admits this tier right now: shed. (For batch that can
			// happen while interactive still flows — by design.)
			break
		}
		c.mRouteDepth.Observe(float64(n.load()))
		mask, occ, err := c.tryNode(ctx, n, img, self)
		switch {
		case err == nil:
			n.br.Success()
			return Result{Mask: mask, Occupancy: occ, Node: n.slot}, nil
		case ctx.Err() != nil:
			// The client's deadline, not the node's fault.
			n.br.Release(probe)
			return Result{}, ctx.Err()
		case errors.Is(err, serve.ErrQueueFull), errors.Is(err, serve.ErrDraining):
			// Saturated or mid-restart, not sick: route around it without
			// charging its health.
			n.br.Release(probe)
		default:
			// An injected fault, or the replica's own self-healing budget is
			// spent — a node-level failure. Eject it if the streak says so and
			// retry elsewhere, budget permitting.
			c.nodeFailure(n)
			if !c.budget.allow() {
				c.stats.retryDenied.Add(1)
				return Result{}, err
			}
			c.stats.redispatched.Add(1)
		}
		skip[n] = true
		lastErr = err
	}
	if lastErr != nil && !errors.Is(lastErr, serve.ErrQueueFull) && !errors.Is(lastErr, serve.ErrDraining) {
		return Result{}, lastErr
	}
	return Result{}, ErrSaturated
}

// tryNode sends one leg's request to n through both fault seams. self, when
// non-nil, learns the slot once the leg is committed to it.
func (c *Cluster) tryNode(ctx context.Context, n *node, img *tensor.Tensor, self *leg) ([]uint8, int, error) {
	if err := c.faults.CheckCtx(ctx, "cluster.node.dispatch"); err != nil {
		return nil, 0, err
	}
	if self != nil {
		self.current.Store(int32(n.slot))
	}
	// Per-slot chaos seam: slow-node programs stall exactly one replica's
	// dispatches here, the condition hedging exists for.
	if err := c.faults.CheckCtx(ctx, c.nodePoints[n.slot]); err != nil {
		return nil, 0, err
	}
	return n.srv.Segment(ctx, img)
}

// probeEta scans the fleet for ejected nodes and returns the soonest wait
// until one admits its probe — never under a millisecond, which is also the
// wait when one is due or its probe is out — plus whether any ejected node
// exists at all. Dispatch uses it to decide between waiting out a fleet-wide
// ejection and shedding outright.
func (c *Cluster) probeEta(now time.Time) (time.Duration, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var soonest time.Duration
	any := false
	for _, n := range c.slots {
		if n == nil || n.stateNow() != NodeEjected {
			continue
		}
		eta := max(n.br.NextProbe().Sub(now), time.Millisecond)
		if !any || eta < soonest {
			soonest = eta
		}
		any = true
	}
	return soonest, any
}

// nodeFailure charges one dispatch failure against a node's breaker. A
// draining node is on its way out and is not charged.
func (c *Cluster) nodeFailure(n *node) {
	if !n.draining.Load() && n.br.Failure(time.Now()) {
		c.stats.ejections.Add(1)
	}
}

// RetryAfter estimates how long a shed client should back off: one node's
// drain estimate divided across the active fleet.
func (c *Cluster) RetryAfter() time.Duration {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var d time.Duration
	active := 0
	for _, n := range c.slots {
		if n == nil {
			continue
		}
		if d == 0 {
			d = n.srv.RetryAfter()
		}
		if n.stateNow() == NodeActive {
			active++
		}
	}
	if active > 1 {
		d /= time.Duration(active)
	}
	if d < time.Millisecond {
		d = time.Millisecond
	}
	return d
}

// InputShape returns the CHW input geometry of the served model.
func (c *Cluster) InputShape() (ch, h, w int) { return c.inC, c.inH, c.inW }

// NumClasses returns the class count of the served model's output masks.
func (c *Cluster) NumClasses() int { return c.classes }

// Draining reports whether Shutdown has begun.
func (c *Cluster) Draining() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.closing
}

// Shutdown stops the autoscaler and new admissions, waits for dispatches
// already through the front door, then drains every node (each node drains
// its own admitted queue — no admitted work is dropped), and waits for every
// drain and restart the fleet started off this path (goLocked). ctx bounds
// how long the caller waits. Shutdown is idempotent.
func (c *Cluster) Shutdown(ctx context.Context) error {
	c.mu.Lock()
	c.closing = true
	c.mu.Unlock()
	c.stopOnce.Do(func() { close(c.ctlStop) })
	c.ctlDone.Wait()

	if err := waitCtx(ctx, &c.submits); err != nil {
		return err
	}

	c.mu.RLock()
	nodes := make([]*node, 0, len(c.slots))
	for _, n := range c.slots {
		if n != nil {
			nodes = append(nodes, n)
		}
	}
	c.mu.RUnlock()

	errs := make(chan error, len(nodes))
	for _, n := range nodes {
		go func(n *node) { errs <- n.srv.Shutdown(ctx) }(n)
	}
	var first error
	for range nodes {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	if err := waitCtx(ctx, &c.owned); err != nil && first == nil {
		first = err
	}
	return first
}

// waitCtx waits for wg, or for ctx to end first.
func waitCtx(ctx context.Context, wg *sync.WaitGroup) error {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// RollingRestart replaces every node in turn: each is removed from routing
// (draining), fully drained of admitted work, shut down, rebuilt via the
// factory and swapped back in before the next one starts — so the fleet
// never loses more than one node of capacity and in-flight requests always
// complete. Restarts serialize; ctx bounds each node's drain.
func (c *Cluster) RollingRestart(ctx context.Context) error {
	c.restartMu.Lock()
	defer c.restartMu.Unlock()
	for i := 0; i < len(c.slots); i++ {
		c.mu.Lock()
		if c.closing {
			c.mu.Unlock()
			return ErrDraining
		}
		n := c.slots[i]
		if n == nil || n.stateNow() != NodeActive {
			c.mu.Unlock()
			continue
		}
		n.draining.Store(true)
		c.ring = buildRing(c.slots) // ring keeps the slot; pick() skips draining nodes
		c.mu.Unlock()

		// Chaos seam: tests program a stall here to hold a node in the
		// draining state (observing the degraded /healthz window), or an
		// error to abort the roll mid-fleet.
		if err := c.faults.CheckCtx(ctx, "cluster.node.restart"); err != nil {
			// Abort the roll: finish this node's drain off to the side so
			// its admitted work still completes, then drop the slot. Once
			// Shutdown has begun, the node stays in its slot for Shutdown
			// to drain.
			c.mu.Lock()
			if c.goLocked(func() {
				dctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				n.srv.Shutdown(dctx)
			}) {
				c.slots[i] = nil
				c.ring = buildRing(c.slots)
			}
			c.mu.Unlock()
			return err
		}
		if err := n.srv.Shutdown(ctx); err != nil {
			c.clearSlot(i)
			return err
		}
		srv, err := c.factory()
		if err != nil {
			c.clearSlot(i)
			return err
		}
		c.mu.Lock()
		if c.closing {
			// Shutdown began while this node was out: it has drained the
			// fleet without the replacement, which must not outlive it.
			c.mu.Unlock()
			srv.Shutdown(ctx)
			return ErrDraining
		}
		c.install(i, srv)
		c.mu.Unlock()
		c.stats.restarts.Add(1)
	}
	return nil
}

// install puts a fresh node for srv, with a closed breaker, into slot i and
// rebuilds the ring. Callers hold c.mu for writing.
func (c *Cluster) install(i int, srv *serve.Server) {
	c.slots[i] = &node{slot: i, gen: c.nextGen, srv: srv, br: breaker.New(c.cfg.FailThreshold, c.cfg.EjectCooldown)}
	c.nextGen++
	c.ring = buildRing(c.slots)
}

// clearSlot empties a slot after a failed replace, leaving the fleet one
// node smaller rather than routing to a dead replica.
func (c *Cluster) clearSlot(i int) {
	c.mu.Lock()
	c.slots[i] = nil
	c.ring = buildRing(c.slots)
	c.mu.Unlock()
}
