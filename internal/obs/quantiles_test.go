package obs

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestQuantilesUniform checks the interpolated estimates against a uniform
// fill: 1000 observations spread evenly over (0, 1] must put p50 near 0.5,
// p99 near 0.99 and p999 near 0.999, within one bucket of resolution.
func TestQuantilesUniform(t *testing.T) {
	r := NewRegistry()
	bounds := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}
	h := r.Histogram("u", "", bounds)
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 1000)
	}
	qs := h.Quantiles(0.50, 0.99, 0.999)
	for i, want := range []float64{0.5, 0.99, 0.999} {
		if math.Abs(qs[i]-want) > 0.1 {
			t.Errorf("quantile %d: got %.4f, want ≈%.4f", i, qs[i], want)
		}
	}
}

// TestDefBucketsResolveServingLatencies holds the default layout to the
// latencies the serving tier reports: a front-door request (median 0.12 ms),
// a kernel-bound one (1.1 ms) and a paced volume batch (140 ms), each
// lognormal at two spreads, must read p50 within 2 % and p99 within 15 % of
// the exact sample quantile. The layout itself is the R10 series from 10 µs
// to 100 s, and its le labels are short decimals.
func TestDefBucketsResolveServingLatencies(t *testing.T) {
	if n := len(DefBuckets); n != 71 || DefBuckets[0] != 1e-5 || DefBuckets[n-1] != 100 {
		t.Fatalf("DefBuckets: %d bounds from %v to %v, want 71 from 1e-05 to 100", n, DefBuckets[0], DefBuckets[n-1])
	}
	for i := 1; i < len(DefBuckets); i++ {
		if r := DefBuckets[i] / DefBuckets[i-1]; r <= 1 || r > 1.28+1e-9 {
			t.Errorf("bounds %v and %v are %.4f× apart", DefBuckets[i-1], DefBuckets[i], r)
		}
	}
	if got := formatFloat(DefBuckets[15]); got != "0.000315" {
		t.Errorf("the 16th bound renders as le=%q, want 0.000315", got)
	}
	rng := rand.New(rand.NewSource(31))
	for _, median := range []float64{0.12e-3, 1.1e-3, 140e-3} {
		for _, sigma := range []float64{0.1, 0.3} {
			h := NewRegistry().Histogram("lat", "", DefBuckets)
			xs := make([]float64, 20000)
			for i := range xs {
				xs[i] = median * math.Exp(sigma*rng.NormFloat64())
				h.Observe(xs[i])
			}
			sort.Float64s(xs)
			got := h.Quantiles(0.5, 0.99)
			for k, c := range []struct{ q, tol float64 }{{0.5, 0.02}, {0.99, 0.15}} {
				exact := xs[int(c.q*float64(len(xs)-1))]
				if rel := (got[k] - exact) / exact; math.Abs(rel) > c.tol {
					t.Errorf("median %v s, σ %v: quantile %v reads %.4g s against %.4g s exact (%+.1f %%, limit %.0f %%)",
						median, sigma, c.q, got[k], exact, 100*rel, 100*c.tol)
				}
			}
		}
	}
}

// TestQuantilesTail pins the p999 extraction on a distribution with a thin
// tail: 995 fast observations and 5 slow ones (0.5% of mass — more than
// the 0.1% the p999 rank reaches past). p50 stays in the fast bucket;
// p999 must climb into the slow one.
func TestQuantilesTail(t *testing.T) {
	r := NewRegistry()
	bounds := []float64{0.001, 0.010, 0.100, 1.0}
	h := r.Histogram("tail", "", bounds)
	for i := 0; i < 995; i++ {
		h.Observe(0.0005)
	}
	for i := 0; i < 5; i++ {
		h.Observe(0.5)
	}
	qs := h.Quantiles(0.50, 0.999)
	if qs[0] > 0.001 {
		t.Errorf("p50 = %v, want ≤ 0.001", qs[0])
	}
	if qs[1] < 0.100 {
		t.Errorf("p999 = %v, want in the slow bucket (≥ 0.100)", qs[1])
	}
}

// TestQuantilesEdgeCases covers the degenerate inputs: no observations,
// and observations past the last bound (the implicit +Inf bucket), which
// must clamp to the highest finite bound rather than extrapolate.
func TestQuantilesEdgeCases(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("edge", "", []float64{1, 2})
	for _, q := range h.Quantiles(0.5, 0.99, 0.999) {
		if q != 0 {
			t.Errorf("empty histogram quantile = %v, want 0", q)
		}
	}
	h.Observe(100) // lands past the last bound
	h.Observe(100)
	if got := h.Quantiles(0.999)[0]; got != 2 {
		t.Errorf("overflow quantile = %v, want clamp to 2", got)
	}
}

// TestQuantilesDurations exercises the intended call pattern: latencies
// observed in seconds, tail quantiles read back as durations.
func TestQuantilesDurations(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", DefBuckets)
	for i := 0; i < 100; i++ {
		h.Observe(0.002) // 2ms
	}
	h.Observe(0.8) // one slow request
	qs := h.Quantiles(0.50, 0.999)
	p50 := time.Duration(qs[0] * float64(time.Second))
	p999 := time.Duration(qs[1] * float64(time.Second))
	if p50 > 5*time.Millisecond {
		t.Errorf("p50 = %v, want ≤ 5ms", p50)
	}
	if p999 < 100*time.Millisecond {
		t.Errorf("p999 = %v, want ≥ 100ms", p999)
	}
}

// TestDeltaQuantilesWindow exercises the brownout controller's call
// pattern: snapshot, wait a tick, snapshot again, and read the tail of
// only the window — old observations must not drag the estimate.
func TestDeltaQuantilesWindow(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", DefBuckets)
	for i := 0; i < 1000; i++ {
		h.Observe(0.001) // a long fast history
	}
	prev := h.Snapshot()
	for i := 0; i < 100; i++ {
		h.Observe(0.5) // the window turns slow
	}
	qs := h.Snapshot().DeltaQuantiles(prev, 0.5, 0.99)
	if qs[0] < 0.1 {
		t.Errorf("window p50 = %v, want ≥ 100ms — history leaked into the window", qs[0])
	}
	// The all-time quantile still reflects the fast history.
	if all := h.Quantiles(0.5)[0]; all > 0.01 {
		t.Errorf("all-time p50 = %v, want ≤ 10ms", all)
	}
}

func TestDeltaQuantilesIdleWindowIsZero(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", DefBuckets)
	h.Observe(0.25)
	prev := h.Snapshot()
	qs := h.Snapshot().DeltaQuantiles(prev, 0.5, 0.99, 0.999)
	for i, q := range qs {
		if q != 0 {
			t.Errorf("idle window quantile %d = %v, want 0", i, q)
		}
	}
	if got := prev.Count(); got != 1 {
		t.Errorf("snapshot Count = %d, want 1", got)
	}
}

func TestDeltaQuantilesZeroPrevIsAllTime(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", DefBuckets)
	for i := 0; i < 100; i++ {
		h.Observe(0.002)
	}
	delta := h.Snapshot().DeltaQuantiles(HistogramSnapshot{}, 0.5)
	all := h.Quantiles(0.5)[0]
	if delta[0] != all {
		t.Errorf("zero-prev delta p50 = %v, all-time = %v", delta[0], all)
	}
}
