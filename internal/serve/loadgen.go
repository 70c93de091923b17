package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"seneca/internal/obs"
)

// LoadPoint is one row of a closed-loop load sweep: the serving-side
// analog of one vart.Runner.SweepThreads entry.
type LoadPoint struct {
	Concurrency int
	Requests    int // completed 200s
	Rejected    int // 429s observed (requests are retried until served)
	Errors      int // non-retryable failures
	Duration    time.Duration
	Throughput  float64 // completed responses per wall second
	P50, P99    time.Duration
	MeanBatch   float64 // mean X-Seneca-Batch occupancy of completed responses
}

// SweepLoad drives a running server closed-loop: for each concurrency
// level it keeps that many clients busy until perLevel responses have
// completed, retrying 429s (so rejected load stays offered, as a real
// client fleet would). body/contentType must encode one valid request for
// the server's model; every client reuses it. P50 and P99 are read from a
// histogram on obs.DefBuckets, as RunOpenLoop's are.
func SweepLoad(baseURL string, body []byte, contentType string, concurrencies []int, perLevel int) ([]LoadPoint, error) {
	if perLevel < 1 {
		perLevel = 1
	}
	client := &http.Client{Timeout: 30 * time.Second}
	var out []LoadPoint
	for _, c := range concurrencies {
		if c < 1 {
			c = 1
		}
		p, err := runLevel(client, baseURL, body, contentType, c, perLevel)
		if err != nil {
			return out, err
		}
		out = append(out, p)
	}
	return out, nil
}

func runLevel(client *http.Client, baseURL string, body []byte, contentType string, conc, perLevel int) (LoadPoint, error) {
	var (
		started, rejected, errored, batchSum atomic.Int64
		errOnce                              sync.Once
		firstErr                             error
	)
	record := func(err error) { errOnce.Do(func() { firstErr = err }) }
	hist := obs.NewRegistry().Histogram("loadgen_latency_seconds", "", obs.DefBuckets)
	begin := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < conc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for started.Add(1) <= int64(perLevel) {
				t0 := time.Now()
				for {
					resp, err := client.Post(baseURL+"/v1/segment", contentType, bytes.NewReader(body))
					if err != nil {
						errored.Add(1)
						record(err)
						return
					}
					occ, status := drainResponse(resp)
					if status == http.StatusTooManyRequests {
						rejected.Add(1)
						time.Sleep(500 * time.Microsecond)
						continue // closed loop: keep offering the load
					}
					if status != http.StatusOK {
						errored.Add(1)
						record(fmt.Errorf("serve: loadgen got HTTP %d", status))
						return
					}
					hist.Observe(time.Since(t0).Seconds())
					batchSum.Add(int64(occ))
					break
				}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(begin)

	p := LoadPoint{
		Concurrency: conc,
		Requests:    int(hist.Count()),
		Rejected:    int(rejected.Load()),
		Errors:      int(errored.Load()),
		Duration:    wall,
	}
	if wall > 0 {
		p.Throughput = float64(p.Requests) / wall.Seconds()
	}
	if p.Requests > 0 {
		qs := hist.Quantiles(0.50, 0.99)
		p.P50 = time.Duration(qs[0] * float64(time.Second))
		p.P99 = time.Duration(qs[1] * float64(time.Second))
		p.MeanBatch = float64(batchSum.Load()) / float64(p.Requests)
	}
	return p, firstErr
}

func drainResponse(resp *http.Response) (occupancy, status int) {
	occupancy = 1
	if v := resp.Header.Get("X-Seneca-Batch"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			occupancy = n
		}
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return occupancy, resp.StatusCode
}

// FetchInputShape asks a running server (via GET /statz) for its model's
// C, H, W input geometry, so a load generator can fabricate inputs.
func FetchInputShape(baseURL string) ([3]int, error) {
	resp, err := http.Get(baseURL + "/statz")
	if err != nil {
		return [3]int{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return [3]int{}, fmt.Errorf("serve: /statz returned HTTP %d", resp.StatusCode)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return [3]int{}, err
	}
	return st.InputShape, nil
}

// EncodeInput serializes float32 values as a raw application/octet-stream
// request body (little-endian, the /v1/segment wire layout).
func EncodeInput(data []float32) []byte {
	buf := make([]byte, 4*len(data))
	for i, v := range data {
		binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
	}
	return buf
}

// ---- Open-loop load ----------------------------------------------------

// OpenLoopConfig drives one open-loop run: arrivals fire on a schedule
// drawn from a stochastic process regardless of how fast the server
// responds — the regime where queues actually grow and tail latency, shed
// rate and goodput mean something. (The closed-loop SweepLoad above can
// never overload the server by more than its client count.)
type OpenLoopConfig struct {
	// Arrival selects the process: "poisson" (default) is a homogeneous
	// Poisson stream at Rate; "diurnal" modulates the rate sinusoidally
	// over Duration (trough ~0.1×, peak ~1.9× Rate), a compressed
	// day/night cycle; "flash" holds Rate and multiplies it by FlashFactor
	// during the middle fifth of the run — a flash crowd.
	Arrival string
	// Rate is the mean arrival rate in requests/second (the baseline rate
	// for "flash"). Default 100.
	Rate float64
	// Duration is how long arrivals are generated. Default 5s.
	Duration time.Duration
	// FlashFactor is the rate multiplier during a flash crowd. Default 8.
	FlashFactor float64
	// Seed makes the arrival schedule reproducible. Default 1.
	Seed int64
	// Tier is sent as the X-Seneca-Tier header ("interactive" or "batch");
	// empty omits the header (servers default to interactive).
	Tier string
	// Deadline, when positive, is sent as the X-Seneca-Deadline-Ms header
	// so the target arms a per-request context deadline. Requests that
	// come back 504 count as Expired, not Errors.
	Deadline time.Duration
	// Timeout is the per-request client timeout. Default 30s.
	Timeout time.Duration
}

func (c OpenLoopConfig) withDefaults() OpenLoopConfig {
	if c.Arrival == "" {
		c.Arrival = "poisson"
	}
	if c.Rate <= 0 {
		c.Rate = 100
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.FlashFactor <= 1 {
		c.FlashFactor = 8
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	return c
}

// OpenLoopReport summarizes one open-loop run. Latency quantiles are
// extracted from histogram bucket counts (obs.Histogram.Quantiles), so a
// multi-million-request run costs a fixed few hundred bytes of state.
type OpenLoopReport struct {
	Arrival  string        `json:"arrival"`
	Rate     float64       `json:"rate"`
	Duration time.Duration `json:"duration"`

	Offered   int `json:"offered"`   // arrivals generated
	Completed int `json:"completed"` // HTTP 200
	Shed      int `json:"shed"`      // HTTP 429 or 503 (load shedding)
	Expired   int `json:"expired"`   // HTTP 504 (deadline lapsed server-side)
	Errors    int `json:"errors"`    // transport errors and other statuses

	Goodput  float64 `json:"goodput"`   // completed responses per wall second
	ShedRate float64 `json:"shed_rate"` // shed / offered

	P50, P99, P999 time.Duration

	// ByVariant counts completed responses by their X-Seneca-Served-Variant
	// header — under brownout the cheaper rungs show up here. Empty when
	// the target does not send the header (a plain Server or Cluster).
	ByVariant map[string]int `json:"by_variant,omitempty"`
	// Hedged counts completed responses carrying X-Seneca-Hedged.
	Hedged int `json:"hedged"`
}

// RunOpenLoop drives a running server (or cluster front door) with
// open-loop arrivals and reports goodput, shed rate and p50/p99/p999
// latency. body/contentType must encode one valid request for the target's
// model; every arrival reuses it. Arrivals that find the target saturated
// count as shed, not retried — offered load is a property of the process,
// not of the server's opinion.
func RunOpenLoop(baseURL string, body []byte, contentType string, cfg OpenLoopConfig) (OpenLoopReport, error) {
	cfg = cfg.withDefaults()
	schedule := arrivalSchedule(cfg)
	client := &http.Client{Timeout: cfg.Timeout}
	hist := obs.NewRegistry().Histogram("loadgen_latency_seconds", "", obs.DefBuckets)

	var completed, shed, expired, hedged atomic.Int64
	var errored atomic.Int64
	var mu sync.Mutex
	var firstErr error
	byVariant := make(map[string]int)
	record := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}

	start := time.Now()
	var wg sync.WaitGroup
	for _, at := range schedule {
		if sleep := at - time.Since(start); sleep > 0 {
			time.Sleep(sleep)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			t0 := time.Now()
			req, err := http.NewRequest(http.MethodPost, baseURL+"/v1/segment", bytes.NewReader(body))
			if err != nil {
				errored.Add(1)
				record(err)
				return
			}
			req.Header.Set("Content-Type", contentType)
			if cfg.Tier != "" {
				req.Header.Set("X-Seneca-Tier", cfg.Tier)
			}
			if cfg.Deadline > 0 {
				req.Header.Set(DeadlineHeader, strconv.FormatInt(cfg.Deadline.Milliseconds(), 10))
			}
			resp, err := client.Do(req)
			if err != nil {
				errored.Add(1)
				record(err)
				return
			}
			variant := resp.Header.Get(ServedVariantHeader)
			wasHedged := resp.Header.Get(HedgedHeader) != ""
			_, status := drainResponse(resp)
			switch status {
			case http.StatusOK:
				completed.Add(1)
				hist.Observe(time.Since(t0).Seconds())
				if wasHedged {
					hedged.Add(1)
				}
				if variant != "" {
					mu.Lock()
					byVariant[variant]++
					mu.Unlock()
				}
			case http.StatusTooManyRequests, http.StatusServiceUnavailable:
				shed.Add(1)
			case http.StatusGatewayTimeout:
				expired.Add(1)
			default:
				errored.Add(1)
				record(fmt.Errorf("serve: open-loop got HTTP %d", status))
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	rep := OpenLoopReport{
		Arrival:   cfg.Arrival,
		Rate:      cfg.Rate,
		Duration:  wall,
		Offered:   len(schedule),
		Completed: int(completed.Load()),
		Shed:      int(shed.Load()),
		Expired:   int(expired.Load()),
		Errors:    int(errored.Load()),
		Hedged:    int(hedged.Load()),
	}
	if len(byVariant) > 0 {
		rep.ByVariant = byVariant
	}
	if wall > 0 {
		rep.Goodput = float64(rep.Completed) / wall.Seconds()
	}
	if rep.Offered > 0 {
		rep.ShedRate = float64(rep.Shed) / float64(rep.Offered)
	}
	qs := hist.Quantiles(0.50, 0.99, 0.999)
	rep.P50 = time.Duration(qs[0] * float64(time.Second))
	rep.P99 = time.Duration(qs[1] * float64(time.Second))
	rep.P999 = time.Duration(qs[2] * float64(time.Second))
	return rep, firstErr
}

// arrivalSchedule draws the arrival offsets for one open-loop run. The
// non-homogeneous processes (diurnal, flash) are generated by thinning a
// homogeneous stream at the peak rate, so the schedule is an exact draw
// from the stated intensity function.
func arrivalSchedule(cfg OpenLoopConfig) []time.Duration {
	rng := rand.New(rand.NewSource(cfg.Seed))
	d := cfg.Duration.Seconds()
	rate := func(t float64) float64 { return cfg.Rate }
	peak := cfg.Rate
	switch cfg.Arrival {
	case "diurnal":
		rate = func(t float64) float64 {
			return cfg.Rate * (1 + 0.9*math.Sin(2*math.Pi*t/d-math.Pi/2))
		}
		peak = 1.9 * cfg.Rate
	case "flash":
		rate = func(t float64) float64 {
			if t >= 0.4*d && t < 0.6*d {
				return cfg.Rate * cfg.FlashFactor
			}
			return cfg.Rate
		}
		peak = cfg.Rate * cfg.FlashFactor
	}
	var out []time.Duration
	for t := rng.ExpFloat64() / peak; t < d; t += rng.ExpFloat64() / peak {
		if rng.Float64()*peak < rate(t) {
			out = append(out, time.Duration(t*float64(time.Second)))
		}
	}
	return out
}

// FormatOpenLoop renders open-loop reports as the fixed-width table
// seneca-loadgen and the cluster example print.
func FormatOpenLoop(w io.Writer, reports []OpenLoopReport) {
	fmt.Fprintf(w, "%-8s %8s %9s %9s %7s %7s %7s %9s %10s %10s %10s\n",
		"arrival", "rate/s", "offered", "goodput", "shed%", "expired", "errs", "p50", "p99", "p999", "wall")
	for _, r := range reports {
		fmt.Fprintf(w, "%-8s %8.0f %9d %9.1f %6.1f%% %7d %7d %9s %10s %10s %10s\n",
			r.Arrival, r.Rate, r.Offered, r.Goodput, 100*r.ShedRate, r.Expired, r.Errors,
			r.P50.Round(10*time.Microsecond), r.P99.Round(10*time.Microsecond),
			r.P999.Round(10*time.Microsecond), r.Duration.Round(time.Millisecond))
	}
}

// FormatHedgeReport renders the per-variant service breakdown and hedged
// fraction of an open-loop run (seneca-loadgen's -hedge-report output).
// Both come from response headers, so the table reflects what clients
// actually observed, not server-side counters.
func FormatHedgeReport(w io.Writer, r OpenLoopReport) {
	if r.Completed == 0 {
		fmt.Fprintln(w, "no completed responses")
		return
	}
	if len(r.ByVariant) > 0 {
		names := make([]string, 0, len(r.ByVariant))
		for name := range r.ByVariant {
			names = append(names, name)
		}
		sort.Strings(names)
		fmt.Fprintf(w, "%-24s %9s %7s\n", "served variant", "count", "share")
		for _, name := range names {
			n := r.ByVariant[name]
			fmt.Fprintf(w, "%-24s %9d %6.1f%%\n", name, n, 100*float64(n)/float64(r.Completed))
		}
	}
	fmt.Fprintf(w, "hedged: %d/%d completed (%.1f%%)\n",
		r.Hedged, r.Completed, 100*float64(r.Hedged)/float64(r.Completed))
}

// FormatSweep renders a load sweep as the fixed-width table the serving
// examples and seneca-loadgen print.
func FormatSweep(w io.Writer, points []LoadPoint) {
	fmt.Fprintf(w, "%6s %10s %10s %10s %10s %10s %10s\n",
		"conc", "reqs", "429s", "req/s", "p50", "p99", "batch")
	for _, p := range points {
		fmt.Fprintf(w, "%6d %10d %10d %10.1f %10s %10s %10.2f\n",
			p.Concurrency, p.Requests, p.Rejected, p.Throughput,
			p.P50.Round(10*time.Microsecond), p.P99.Round(10*time.Microsecond), p.MeanBatch)
	}
}
