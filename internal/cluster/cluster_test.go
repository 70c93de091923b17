package cluster

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"seneca/internal/dpu"
	"seneca/internal/fault"
	"seneca/internal/quant"
	"seneca/internal/serve"
	"seneca/internal/tensor"
	"seneca/internal/unet"
	"seneca/internal/xmodel"
)

// testProgram compiles a tiny shape-only-quantized U-Net plus a batch of
// random inputs of the matching geometry (the serve-tier test fixture).
func testProgram(t testing.TB, size, nimgs int) (*xmodel.Program, []*tensor.Tensor) {
	t.Helper()
	cfg := unet.Config{Name: "tiny", Depth: 2, BaseFilters: 8, InChannels: 1, NumClasses: 6, DropoutRate: 0, Seed: 2}
	g := unet.New(cfg).Export(size, size)
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
	return prog, imgs
}

// testFactory returns a node factory building one fresh simulated board
// (own dpu.Device) per replica, plus a count of how many nodes were built.
func testFactory(t testing.TB, prog *xmodel.Program, nodeCfg serve.Config) (func() (*serve.Server, error), *atomic.Int32) {
	t.Helper()
	var built atomic.Int32
	return func() (*serve.Server, error) {
		built.Add(1)
		return serve.New(dpu.New(dpu.ZCU104B4096()), prog, nodeCfg)
	}, &built
}

func newTestCluster(t testing.TB, cfg Config, nodeCfg serve.Config) (*Cluster, *xmodel.Program, []*tensor.Tensor) {
	t.Helper()
	prog, imgs := testProgram(t, 32, 8)
	if nodeCfg.Threads == 0 {
		nodeCfg.Threads = 2
	}
	factory, _ := testFactory(t, prog, nodeCfg)
	c, err := New(factory, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		c.Shutdown(ctx)
	})
	return c, prog, imgs
}

// settle shuts the fleet down and waits for the process to come back to base
// goroutines, counted before the fleet was built: nothing the fleet started —
// its control loop, the nodes' batchers and dispatches, hedge legs, drains —
// may outlive Shutdown.
func settle(t *testing.T, c *Cluster, base int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := c.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after Shutdown, %d before the fleet:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSubmitMatchesDirectExecute proves routing through the fleet changes
// nothing about the masks: every response is bit-identical to direct
// execution on a reference device.
func TestSubmitMatchesDirectExecute(t *testing.T) {
	c, prog, imgs := newTestCluster(t, Config{MinNodes: 2, MaxNodes: 2}, serve.Config{})
	for i, img := range imgs {
		res, err := c.Do(context.Background(), img, "", TierInteractive)
		if err != nil {
			t.Fatal(err)
		}
		want, err := prog.Run(img)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Mask) != len(want) {
			t.Fatalf("img %d: mask length %d, want %d", i, len(res.Mask), len(want))
		}
		for j := range want {
			if res.Mask[j] != want[j] {
				t.Fatalf("img %d: mask diverges from direct execution at %d", i, j)
			}
		}
	}
	st := c.Stats()
	if st.Interactive.Completed != uint64(len(imgs)) {
		t.Fatalf("interactive completed = %d, want %d", st.Interactive.Completed, len(imgs))
	}
	if st.ActiveNodes != 2 {
		t.Fatalf("active nodes = %d, want 2", st.ActiveNodes)
	}
}

// TestConsistentHashAffinity checks that under PolicyHash a keyed request
// keeps landing on the same node while the topology is stable, and that
// distinct keys spread across the fleet.
func TestConsistentHashAffinity(t *testing.T) {
	c, _, imgs := newTestCluster(t, Config{MinNodes: 3, MaxNodes: 3, Placement: PolicyHash}, serve.Config{})
	keys := []string{"patient-a", "patient-b", "patient-c", "patient-d", "patient-e", "patient-f"}
	first := make(map[string]int)
	used := make(map[int]bool)
	for round := 0; round < 3; round++ {
		for _, key := range keys {
			res, err := c.Do(context.Background(), imgs[round%len(imgs)], key, TierInteractive)
			if err != nil {
				t.Fatal(err)
			}
			if round == 0 {
				first[key] = res.Node
				used[res.Node] = true
				continue
			}
			if res.Node != first[key] {
				t.Fatalf("key %q moved node %d → %d with stable topology", key, first[key], res.Node)
			}
		}
	}
	if len(used) < 2 {
		t.Fatalf("6 keys all hashed to one node of 3: %v", first)
	}
}

// TestBatchShedsBeforeInteractive is the preemption guarantee: with every
// node's queue held above the batch water mark, batch submissions shed
// while interactive submissions still complete.
func TestBatchShedsBeforeInteractive(t *testing.T) {
	// One node, tiny queue, and SimPace holding each frame's lane for its
	// simulated board time, so six closed-loop clients keep the depth past
	// the water mark however fast the host kernels are.
	c, _, imgs := newTestCluster(t,
		Config{MinNodes: 1, MaxNodes: 1, BatchWaterFrac: 0.5, MaxAttempts: 1},
		serve.Config{QueueDepth: 8, MaxBatch: 1, MaxDelay: time.Millisecond, SimPace: 1})

	// Saturate past the batch water mark (4 of 8) with interactive work.
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.Do(context.Background(), imgs[i%len(imgs)], "", TierInteractive)
			}
		}(i)
	}
	// Wait until the pressure is visible to admission.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, load := c.fleetLoad(); load >= c.batchWater {
			break
		}
		if time.Now().After(deadline) {
			close(stop)
			wg.Wait()
			t.Skip("could not build queue pressure on this host")
		}
		time.Sleep(time.Millisecond)
	}

	var batchShed, interactiveShed int
	for i := 0; i < 20; i++ {
		if _, err := c.Do(context.Background(), imgs[i%len(imgs)], "", TierBatch); errors.Is(err, ErrSaturated) {
			batchShed++
		}
		if _, err := c.Do(context.Background(), imgs[i%len(imgs)], "", TierInteractive); errors.Is(err, ErrSaturated) {
			interactiveShed++
		}
	}
	close(stop)
	wg.Wait()

	if batchShed == 0 {
		t.Fatalf("no batch submissions shed under sustained pressure (interactive shed %d)", interactiveShed)
	}
	if interactiveShed > 0 {
		t.Fatalf("interactive shed %d times while batch shed %d — interactive must never shed before batch", interactiveShed, batchShed)
	}
	st := c.Stats()
	if st.Batch.Shed == 0 || st.Interactive.Shed != 0 {
		t.Fatalf("stats disagree: batch shed %d, interactive shed %d", st.Batch.Shed, st.Interactive.Shed)
	}
}

// TestAutoscalerSpawnsAndRetires drives sustained pressure into a 1-node
// fleet and requires the autoscaler to spawn up to MaxNodes, then retire
// back down to MinNodes once the load stops.
func TestAutoscalerSpawnsAndRetires(t *testing.T) {
	c, _, imgs := newTestCluster(t,
		Config{
			MinNodes:      1,
			MaxNodes:      3,
			HighWaterFrac: 0.4,
			LowWaterFrac:  0.05,
			SustainWindow: 30 * time.Millisecond,
			ScaleCooldown: 50 * time.Millisecond,
			EvalInterval:  10 * time.Millisecond,
		},
		serve.Config{QueueDepth: 8, MaxBatch: 1, MaxDelay: time.Millisecond})

	// Enough closed-loop clients that even a 3-node fleet sits clearly
	// above the high water mark while they run.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 24; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				c.Do(context.Background(), imgs[i%len(imgs)], "", TierInteractive)
			}
		}(i)
	}

	deadline := time.Now().Add(15 * time.Second)
	for c.Stats().ActiveNodes < 3 {
		if time.Now().After(deadline) {
			close(stop)
			wg.Wait()
			t.Fatalf("autoscaler never reached MaxNodes: %+v", c.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if ups := c.Stats().ScaleUps; ups < 2 {
		t.Fatalf("scale-ups = %d, want ≥ 2", ups)
	}

	deadline = time.Now().Add(15 * time.Second)
	for {
		st := c.Stats()
		if st.ActiveNodes == 1 && len(st.Nodes) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("autoscaler never retired back to MinNodes: %+v", c.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if downs := c.Stats().ScaleDowns; downs < 2 {
		t.Fatalf("scale-downs = %d, want ≥ 2", downs)
	}
}

// TestFleetSaturationSheds verifies cluster-wide load shedding: with every
// node full and MaxAttempts exhausted, Do returns ErrSaturated rather than
// blocking, and the shed counter moves.
func TestFleetSaturationSheds(t *testing.T) {
	// SimPace holds each frame's lane for its simulated board time, so the
	// 2-deep queue cannot drain between submissions however fast the host
	// kernels are; without it the overflow depends on scheduler timing.
	c, _, imgs := newTestCluster(t,
		Config{MinNodes: 1, MaxNodes: 1, MaxAttempts: 2},
		serve.Config{QueueDepth: 2, MaxBatch: 1, MaxDelay: 50 * time.Millisecond, SimPace: 1})

	// Flood far past capacity from many goroutines; at least one must shed.
	var shed atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := c.Do(context.Background(), imgs[i%len(imgs)], "", TierInteractive); errors.Is(err, ErrSaturated) {
				shed.Add(1)
			}
		}(i)
	}
	wg.Wait()
	if shed.Load() == 0 {
		t.Fatal("no request shed with a 2-deep queue and 32 concurrent clients")
	}
	if c.Stats().Interactive.Shed == 0 {
		t.Fatal("shed counter did not move")
	}
}

// TestIdleFleetProbesEjectedNode pins how a quiet fleet heals: once an
// ejected node's cooldown has passed, the very next request is its probe,
// even though the active node is idle too and would win the least-loaded
// tie on slot. (It used to: a fleet whose burst ended before the cooldown
// stayed degraded until concurrent load happened to push a request over.)
func TestIdleFleetProbesEjectedNode(t *testing.T) {
	c, _, imgs := newTestCluster(t,
		Config{MinNodes: 2, MaxNodes: 2, FailThreshold: 1, EjectCooldown: 10 * time.Millisecond},
		serve.Config{})
	c.mu.RLock()
	last := c.slots[1]
	c.mu.RUnlock()
	c.nodeFailure(last)
	if h := c.Health(); h.Active != 1 {
		t.Fatalf("after one failure at threshold 1: %+v", h)
	}
	time.Sleep(20 * time.Millisecond)
	if _, err := c.Do(context.Background(), imgs[0], "", TierInteractive); err != nil {
		t.Fatal(err)
	}
	if h := c.Health(); h.Active != 2 {
		t.Fatalf("one request after the cooldown did not probe the ejected node back in: %+v", h)
	}
}

// TestDeadLegReleasesOnlyItsOwnProbe: a request picks a node while it is
// active and stalls at the dispatch fault seam; meanwhile the node is ejected,
// cools down and a probe claims it. When the stalled request's context dies it
// must hand back only what its own claim holds — nothing — so a second probe
// is still refused while the first is out. (Both fault seams used to release
// the probe on context death whether or not the claim was the probe.)
func TestDeadLegReleasesOnlyItsOwnProbe(t *testing.T) {
	faults := fault.NewRegistry(1, nil)
	faults.Enable("cluster.node.dispatch", fault.Fault{Count: 1, Delay: time.Hour})
	c, _, imgs := newTestCluster(t,
		Config{MinNodes: 1, MaxNodes: 1, FailThreshold: 1, EjectCooldown: time.Millisecond, Faults: faults},
		serve.Config{})
	c.mu.RLock()
	n := c.slots[0]
	c.mu.RUnlock()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Do(ctx, imgs[0], "", TierInteractive)
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for faults.Injected("cluster.node.dispatch") == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the request never reached the dispatch seam")
		}
		time.Sleep(time.Millisecond)
	}
	c.nodeFailure(n) // threshold 1: the node is ejected
	time.Sleep(2 * time.Millisecond)
	if ok, probe := n.br.Claim(time.Now()); !ok || !probe {
		t.Fatalf("claim past the cooldown: ok %t, probe %t; want the probe", ok, probe)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("stalled request: %v, want context.Canceled", err)
	}
	if ok, _ := n.br.Claim(time.Now()); ok {
		t.Fatal("a second probe got in while the first is out")
	}
}
