package cluster

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"seneca/internal/fault"
	"seneca/internal/serve"
)

func TestRetryBudgetFloorAndFraction(t *testing.T) {
	b := newRetryBudget(0.5, 2, time.Hour)
	// An empty window still admits the Min floor, and not one more.
	if !b.allow() || !b.allow() {
		t.Fatal("budget floor must admit Min retries with zero requests")
	}
	if b.allow() {
		t.Fatal("budget admitted past its floor with zero requests")
	}
	// 10 admitted requests raise the limit to frac×10 = 5; 2 are spent.
	for i := 0; i < 10; i++ {
		b.noteRequest()
	}
	for i := 0; i < 3; i++ {
		if !b.allow() {
			t.Fatalf("retry %d of 3 denied with limit 5 and 2 spent", i)
		}
	}
	if b.allow() {
		t.Fatal("budget admitted a 6th retry with limit 5")
	}
}

func TestRetryBudgetWindowRolls(t *testing.T) {
	b := newRetryBudget(0.5, 1, 10*time.Millisecond)
	if !b.allow() {
		t.Fatal("fresh budget denied its floor")
	}
	if b.allow() {
		t.Fatal("spent budget admitted another retry inside the window")
	}
	time.Sleep(20 * time.Millisecond)
	if !b.allow() {
		t.Fatal("a new window did not restore the budget")
	}
}

func TestHedgeDelayEligibility(t *testing.T) {
	c := &Cluster{cfg: Config{HedgeFraction: 0.25, HedgeAfter: 50 * time.Millisecond}.withDefaults()}
	bg := context.Background()
	if _, ok := c.hedgeDelay(bg, TierBatch); ok {
		t.Fatal("batch tier must never hedge")
	}
	ctx, cancel := context.WithTimeout(bg, time.Second)
	defer cancel()
	d, ok := c.hedgeDelay(ctx, TierInteractive)
	if !ok || d <= 0 || d > 250*time.Millisecond {
		t.Fatalf("deadline hedge delay = %v, %v; want ~0.25 of the remaining second", d, ok)
	}
	if d, ok = c.hedgeDelay(bg, TierInteractive); !ok || d != 50*time.Millisecond {
		t.Fatalf("deadline-less hedge = %v, %v; want HedgeAfter", d, ok)
	}
	expired, cancel2 := context.WithDeadline(bg, time.Now().Add(-time.Second))
	defer cancel2()
	if _, ok := c.hedgeDelay(expired, TierInteractive); ok {
		t.Fatal("an already-expired deadline must not hedge")
	}
	off := &Cluster{cfg: Config{}.withDefaults()}
	if _, ok := off.hedgeDelay(ctx, TierInteractive); ok {
		t.Fatal("HedgeFraction 0 must disable hedging")
	}
}

// TestHedgeRescuesSlowNodeAndAvoidsPrimary programs every dispatch to slot
// 0 — the idle fleet's deterministic first pick — to stall far past the
// hedge threshold. The hedge leg must launch, land on the other node,
// answer first (bit-exact), and cancel the stalled primary.
func TestHedgeRescuesSlowNodeAndAvoidsPrimary(t *testing.T) {
	c, prog, imgs := newTestCluster(t,
		Config{MinNodes: 2, MaxNodes: 2, HedgeFraction: 0.15, RetryBudgetFrac: 1, RetryBudgetMin: 100},
		serve.Config{QueueDepth: 64})
	fault.Seed(3)
	fault.Enable("cluster.node.serve.0", fault.SlowTail(0, 1200*time.Millisecond))
	t.Cleanup(fault.Reset)

	const n = 5
	for i := 0; i < n; i++ {
		img := imgs[i%len(imgs)]
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		res, err := c.Do(ctx, img, "", TierInteractive)
		cancel()
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !res.Hedged {
			t.Fatalf("request %d not hedged despite a 1.2s primary stall and a ~300ms hedge threshold", i)
		}
		if res.Node != 1 {
			t.Fatalf("request %d served by node %d — the hedge must avoid its primary's node", i, res.Node)
		}
		want, err := prog.Run(img)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(res.Mask, want) {
			t.Fatalf("request %d: hedged mask diverges from direct execution", i)
		}
	}
	st := c.Stats()
	if st.Hedges != n || st.HedgeWins != n {
		t.Fatalf("hedges = %d, wins = %d, want %d/%d", st.Hedges, st.HedgeWins, n, n)
	}
	if st.Interactive.Completed != n {
		t.Fatalf("completed = %d, want %d — a hedge must complete its request exactly once", st.Interactive.Completed, n)
	}

	// The front door advertises the hedge and propagates the deadline that
	// arms it.
	web := httptest.NewServer(c.Handler())
	defer web.Close()
	req, err := http.NewRequest(http.MethodPost, web.URL+"/v1/segment", bytes.NewReader(serve.EncodeInput(imgs[0].Data)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(serve.DeadlineHeader, "2000")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if resp.Header.Get(serve.HedgedHeader) != "1" {
		t.Fatalf("%s header = %q, want 1", serve.HedgedHeader, resp.Header.Get(serve.HedgedHeader))
	}
	want, err := prog.Run(imgs[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body, want) {
		t.Fatal("hedged HTTP response diverges from direct execution")
	}

	// The obs mirror of the hedge counters.
	text := c.reg.Expose()
	for _, name := range []string{
		"seneca_cluster_hedges_total",
		"seneca_cluster_hedge_wins_total",
		"seneca_cluster_retry_budget_denied_total",
	} {
		if !strings.Contains(text, name) {
			t.Errorf("metrics missing %s", name)
		}
	}
}

// TestHedgeDeniedByRetryBudget pins the budget to a single token: the
// first stalled request hedges, the second is denied and must ride out
// its primary's stall — still answering correctly, just slower.
func TestHedgeDeniedByRetryBudget(t *testing.T) {
	c, _, imgs := newTestCluster(t,
		Config{MinNodes: 2, MaxNodes: 2, HedgeFraction: 0.15, RetryBudgetFrac: 0.01, RetryBudgetMin: 1},
		serve.Config{QueueDepth: 64})
	fault.Seed(4)
	fault.Enable("cluster.node.serve.0", fault.SlowTail(0, 700*time.Millisecond))
	t.Cleanup(fault.Reset)

	do := func() Result {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		defer cancel()
		res, err := c.Do(ctx, imgs[0], "", TierInteractive)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if res := do(); !res.Hedged {
		t.Fatal("first stalled request did not spend the budget's single hedge token")
	}
	if res := do(); res.Hedged {
		t.Fatal("second request hedged past an exhausted retry budget")
	}
	st := c.Stats()
	if st.Hedges != 1 {
		t.Fatalf("hedges = %d, want 1", st.Hedges)
	}
	if st.RetryDenied != 1 {
		t.Fatalf("retry budget denials = %d, want 1", st.RetryDenied)
	}
	if st.Interactive.Completed != 2 {
		t.Fatalf("completed = %d, want 2 — a denied hedge must not lose the request", st.Interactive.Completed)
	}
}
