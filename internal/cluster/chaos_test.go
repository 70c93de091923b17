package cluster

import (
	"bytes"
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"seneca/internal/fault"
	"seneca/internal/serve"
)

// TestChaosNodeKilledMidBurst is the cluster resilience tentpole: the
// "cluster.node.dispatch" fault point kills node dispatches mid-burst —
// enough consecutive hits to eject whole nodes from routing — and every
// response must still be bit-identical to fault-free execution, with zero
// lost requests. Redispatch must carry every faulted request to a healthy
// node. Runs under -race in `make chaos`.
func TestChaosNodeKilledMidBurst(t *testing.T) {
	base := runtime.NumGoroutine()
	c, prog, imgs := newTestCluster(t,
		Config{
			MinNodes:      2,
			MaxNodes:      2,
			FailThreshold: 2,
			EjectCooldown: 50 * time.Millisecond,
			// Every request may ride out several injected kills.
			MaxAttempts: 8,
		},
		serve.Config{QueueDepth: 256, MaxBatch: 4})

	// Fault-free goldens, computed before arming the registry.
	goldens := make([][]uint8, len(imgs))
	for i, img := range imgs {
		want, err := prog.Run(img)
		if err != nil {
			t.Fatal(err)
		}
		goldens[i] = want
	}

	// 6 dispatch kills: with FailThreshold 2 that is enough to eject both
	// nodes at least once mid-burst; count-capped so the fleet heals and
	// the burst completes.
	fault.Seed(42)
	fault.Enable("cluster.node.dispatch", fault.Fault{Prob: 1, Count: 6})
	t.Cleanup(fault.Reset)

	const clients, perClient = 8, 15
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		wrong int
		lost  int
	)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				idx := (cl*perClient + i) % len(imgs)
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				res, err := c.Do(ctx, imgs[idx], "", TierInteractive)
				cancel()
				if err != nil {
					mu.Lock()
					lost++
					mu.Unlock()
					t.Logf("client %d request %d: %v", cl, i, err)
					continue
				}
				ok := len(res.Mask) == len(goldens[idx])
				if ok {
					for j := range res.Mask {
						if res.Mask[j] != goldens[idx][j] {
							ok = false
							break
						}
					}
				}
				if !ok {
					mu.Lock()
					wrong++
					mu.Unlock()
				}
			}
		}(cl)
	}
	wg.Wait()

	if wrong != 0 || lost != 0 {
		t.Fatalf("chaos burst: %d wrong, %d lost of %d (want 0/0)", wrong, lost, clients*perClient)
	}
	if got := fault.Injected("cluster.node.dispatch"); got != 6 {
		t.Fatalf("injected %d dispatch kills, want 6", got)
	}
	st := c.Stats()
	if st.Redispatches < 6 {
		t.Fatalf("redispatches = %d, want ≥ 6 (every kill must re-route)", st.Redispatches)
	}
	if st.Ejections == 0 {
		t.Fatal("no node was ejected despite 6 consecutive-capable dispatch kills")
	}
	if st.Interactive.Completed != uint64(clients*perClient) {
		t.Fatalf("completed %d of %d", st.Interactive.Completed, clients*perClient)
	}

	// The fleet must heal: both nodes back to active once cooldowns pass
	// and probes succeed (driven by the trailing traffic above, or by one
	// extra probe request here).
	deadline := time.Now().Add(10 * time.Second)
	for {
		if h := c.Health(); h.Active == 2 {
			break
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		c.Do(ctx, imgs[0], "", TierInteractive)
		cancel()
		if time.Now().After(deadline) {
			t.Fatalf("fleet never healed: %+v", c.Health())
		}
		time.Sleep(10 * time.Millisecond)
	}
	settle(t, c, base)
}

// TestChaosDispatchStallRedispatches programs a latency fault on the
// dispatch point: stalled dispatches must still complete correctly within
// the client deadline via the interruptible fault sleep and redispatch.
func TestChaosDispatchStallRedispatches(t *testing.T) {
	base := runtime.NumGoroutine()
	c, prog, imgs := newTestCluster(t,
		Config{MinNodes: 2, MaxNodes: 2, FailThreshold: 2, EjectCooldown: 50 * time.Millisecond, MaxAttempts: 6},
		serve.Config{QueueDepth: 64})

	fault.Seed(7)
	// A stall then an error on the same point: delay+err fires both.
	fault.Enable("cluster.node.dispatch", fault.Fault{Prob: 1, Count: 3, Delay: 20 * time.Millisecond, Err: fault.ErrInjected})
	t.Cleanup(fault.Reset)

	for i, img := range imgs {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		res, err := c.Do(ctx, img, "", TierInteractive)
		cancel()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		want, err := prog.Run(img)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if res.Mask[j] != want[j] {
				t.Fatalf("request %d: mask diverges at %d after stalled dispatch", i, j)
			}
		}
	}
	if got := fault.Injected("cluster.node.dispatch"); got != 3 {
		t.Fatalf("injected %d, want 3", got)
	}
	settle(t, c, base)
}

// TestChaosSlowNodeHedgedMidBurst is the overload-robustness satellite:
// one node of two develops a percentile-shaped latency tail (the slowest
// 20% of its dispatches stall 3s — far past any healthy service time),
// while interactive clients carry 6s deadlines and hedge after a third of
// the remaining budget. Hedging must rescue every stalled request inside
// its deadline with zero wrong, lost or duplicated responses, and the
// hedge counters must reconcile with the fault registry's stall census.
// Runs under -race in `make chaos`.
func TestChaosSlowNodeHedgedMidBurst(t *testing.T) {
	base := runtime.NumGoroutine()
	c, prog, imgs := newTestCluster(t,
		Config{
			MinNodes: 2, MaxNodes: 2,
			HedgeFraction:   1.0 / 3,
			RetryBudgetFrac: 1,
			RetryBudgetMin:  1000, // the budget must never be the limiter here
		},
		serve.Config{QueueDepth: 256, MaxBatch: 4})

	// Fault-free goldens, computed before arming the registry.
	goldens := make([][]uint8, len(imgs))
	for i, img := range imgs {
		want, err := prog.Run(img)
		if err != nil {
			t.Fatal(err)
		}
		goldens[i] = want
	}

	fault.Seed(11)
	fault.Enable("cluster.node.serve.0", fault.SlowTail(0.8, 3*time.Second))
	t.Cleanup(fault.Reset)

	const clients, perClient = 8, 40
	var (
		wg                             sync.WaitGroup
		mu                             sync.Mutex
		wrong, lost, hedged, completed int
	)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				idx := (cl*perClient + i) % len(imgs)
				ctx, cancel := context.WithTimeout(context.Background(), 6*time.Second)
				res, err := c.Do(ctx, imgs[idx], "", TierInteractive)
				cancel()
				mu.Lock()
				if err != nil {
					lost++
					mu.Unlock()
					t.Logf("client %d request %d: %v", cl, i, err)
					continue
				}
				completed++
				if res.Hedged {
					hedged++
				}
				if !bytes.Equal(res.Mask, goldens[idx]) {
					wrong++
				}
				mu.Unlock()
			}
		}(cl)
	}
	wg.Wait()

	if wrong != 0 || lost != 0 {
		t.Fatalf("slow-node burst: %d wrong, %d lost of %d (want 0/0)", wrong, lost, clients*perClient)
	}
	st := c.Stats()
	// Exactly one completion per offered request: first-response-wins must
	// never double-count a request whose two legs both ran.
	if st.Interactive.Completed != uint64(clients*perClient) {
		t.Fatalf("fleet completed %d of %d offered", st.Interactive.Completed, clients*perClient)
	}
	injected := fault.Injected("cluster.node.serve.0")
	if injected == 0 {
		t.Fatal("the slow-node program never fired")
	}
	if st.Hedges == 0 || st.HedgeWins == 0 {
		t.Fatalf("hedges = %d, wins = %d — a 3s stall against a 2s threshold must hedge and win", st.Hedges, st.HedgeWins)
	}
	if st.RetryDenied != 0 {
		t.Fatalf("retry budget denied %d hedges despite a 1000-token floor", st.RetryDenied)
	}
	// Reconcile the counters: every client that was hedged saw exactly one
	// hedge leg, so the fleet counter must equal the client census.
	if hedged != int(st.Hedges) {
		t.Fatalf("clients saw %d hedged responses, fleet launched %d hedge legs", hedged, st.Hedges)
	}
	// Reconcile against the stall census: a 3s stall is the only way a leg
	// outlives the 2s hedge threshold, so every hedge traces to an injected
	// stall (hedges ≤ injected); and since only a request's primary or its
	// single hedge leg can stall, injected ≤ 2×hedges.
	if int(st.Hedges) > injected || injected > 2*int(st.Hedges) {
		t.Fatalf("hedges = %d vs %d injected stalls — outside the reconcilable band", st.Hedges, injected)
	}
	if st.HedgeWins > st.Hedges {
		t.Fatalf("hedge wins %d exceed hedges %d", st.HedgeWins, st.Hedges)
	}
	settle(t, c, base)
}
