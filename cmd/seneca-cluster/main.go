// Command seneca-cluster runs the sharded serving fleet: an HTTP front
// door spreading segmentation traffic across a fleet of in-process serving
// replicas — each modelling one deployed ZCU104 board with its own runner
// pool, admission queue and breakers — with pluggable placement,
// two-tier priority admission (interactive preempts batch), queue-driven
// autoscaling between -min-nodes and -max-nodes, per-node health ejection
// and cluster-wide load shedding (429 + Retry-After).
//
// Usage:
//
//	seneca-cluster -addr :8080 -min-nodes 1 -max-nodes 4
//	seneca-cluster -placement hash             # key-affine routing via X-Seneca-Key
//	seneca-cluster -xmodel 1m.xmodel -runners 2 -threads 4
//
// With no -xmodel it serves a small built-in demo network, like
// seneca-serve. Endpoints: POST /v1/segment (X-Seneca-Tier, X-Seneca-Key),
// GET /healthz, GET /statz, GET /metrics, POST /v1/admin/rolling-restart.
// SIGINT/SIGTERM drains the whole fleet gracefully.
package main

import (
	"flag"
	"sync"
	"time"

	"seneca/internal/cluster"
	"seneca/internal/dpu"
	"seneca/internal/hostmain"
	"seneca/internal/obs"
	"seneca/internal/quant"
	"seneca/internal/serve"
)

func main() {
	xmodelPath := flag.String("xmodel", "", "compiled xmodel (empty: built-in demo network)")
	addr := flag.String("addr", ":8080", "listen address")
	size := flag.Int("size", 64, "demo network input size (only without -xmodel)")

	minNodes := flag.Int("min-nodes", 1, "fleet floor (and startup size)")
	maxNodes := flag.Int("max-nodes", 4, "fleet ceiling")
	placement := flag.String("placement", "least-loaded", `placement policy: "least-loaded" or "hash"`)
	highWater := flag.Float64("high-water", 0.75, "aggregate load fraction that spawns a node when sustained")
	lowWater := flag.Float64("low-water", 0.10, "aggregate load fraction that retires a node when sustained")
	sustain := flag.Duration("sustain", 250*time.Millisecond, "how long a water mark must hold before scaling")
	cooldown := flag.Duration("scale-cooldown", time.Second, "minimum gap between scaling actions")
	batchWater := flag.Float64("batch-water", 0.5, "per-node queue fraction batch traffic may occupy")
	failThreshold := flag.Int("fail-threshold", 3, "consecutive dispatch failures that eject a node")
	ejectCooldown := flag.Duration("eject-cooldown", 500*time.Millisecond, "ejected-node cooldown before a probe")
	attempts := flag.Int("attempts", 3, "nodes one request may be dispatched to before erroring")
	hedgeFraction := flag.Float64("hedge-fraction", 0, "hedge an interactive request after this fraction of its remaining deadline (0 disables hedging)")
	hedgeAfter := flag.Duration("hedge-after", 0, "fixed hedge delay for deadline-less interactive requests (0 = never hedge them)")
	retryBudgetFrac := flag.Float64("retry-budget", 0.1, "retries+hedges allowed per window, as a fraction of requests")
	retryBudgetMin := flag.Int("retry-budget-min", 10, "retry-budget floor per window, so a quiet fleet can still retry")
	retryBudgetWindow := flag.Duration("retry-budget-window", 10*time.Second, "retry-budget accounting window")

	node := hostmain.ServeFlags()
	for _, name := range []string{"runners", "max-batch", "queue"} {
		flag.Lookup(name).Usage += " per node"
	}
	flag.DurationVar(&node.Timeout, "timeout", 5*time.Second, "per-request deadline (0 = none)")
	flag.Float64Var(&node.SimPace, "sim-pace", 0, "pace batches to N× their simulated board time (0 = run at host speed)")
	faults := flag.String("faults", "", `fault-injection spec, e.g. "cluster.node.dispatch,p=0.01" (chaos testing)`)
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	flag.Parse()

	lg := obs.SetupDefault("seneca-cluster", obs.ParseLevel(*logLevel))
	hostmain.ArmFaults(lg, *faults, node.Seed)
	prog := hostmain.Program(lg, *xmodelPath, *size)

	// Every replica gets its own simulated board — the factory is the unit
	// the autoscaler and rolling restarts call to provision capacity.
	var widths []int // of the first replica's runners; every replica is built alike
	var first sync.Once
	factory := func() (*serve.Server, error) {
		srv, err := serve.New(dpu.New(dpu.ZCU104B4096()), prog, *node)
		if err == nil {
			first.Do(func() { widths = srv.Health().Widths })
		}
		return srv, err
	}
	c, err := cluster.New(factory, cluster.Config{
		MinNodes:       *minNodes,
		MaxNodes:       *maxNodes,
		Placement:      cluster.Policy(*placement),
		HighWaterFrac:  *highWater,
		LowWaterFrac:   *lowWater,
		SustainWindow:  *sustain,
		ScaleCooldown:  *cooldown,
		BatchWaterFrac: *batchWater,
		FailThreshold:  *failThreshold,
		EjectCooldown:  *ejectCooldown,
		MaxAttempts:    *attempts,
		MaxBodyBytes:   node.MaxBodyBytes,

		HedgeFraction:     *hedgeFraction,
		HedgeAfter:        *hedgeAfter,
		RetryBudgetFrac:   *retryBudgetFrac,
		RetryBudgetMin:    *retryBudgetMin,
		RetryBudgetWindow: *retryBudgetWindow,

		Metrics: obs.Default,
	})
	if err != nil {
		hostmain.Fatal(lg, "starting cluster", "err", err)
	}

	g := prog.Graph
	lg.Info("serving fleet",
		"model", prog.Name,
		"shape", []int{g.InC, g.InH, g.InW},
		"addr", *addr,
		"min_nodes", *minNodes,
		"max_nodes", *maxNodes,
		"placement", *placement,
		"queue_per_node", node.QueueDepth,
		"batch_water", *batchWater,
		"kernel_isa", quant.KernelISA(),
		"runner_widths", widths)
	hostmain.Serve(lg, *addr, c.Handler(), 60*time.Second, c.Shutdown)

	st := c.Stats()
	lg.Info("served",
		"interactive_completed", st.Interactive.Completed,
		"interactive_shed", st.Interactive.Shed,
		"batch_completed", st.Batch.Completed,
		"batch_shed", st.Batch.Shed,
		"scale_ups", st.ScaleUps,
		"scale_downs", st.ScaleDowns,
		"ejections", st.Ejections)
}
