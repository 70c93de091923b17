package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"sync"
	"time"
)

// openConns bounds the open-loop generator's connections. It is far above
// the ≈0.8 requests in flight the fixed rate offers, so an arrival waits for
// a connection only when the server has stalled — and that wait is counted,
// because latency runs from the due time.
const openConns = 16

// The sentinel is a fixed piece of work timed again and again while a window
// runs: every sentinelEvery, on whichever core the scheduler offers. It costs
// ≈1% of one core, the same on every commit, and reads the speed the host
// gives this sandbox at that moment, whatever the server achieves with it.
//
// The work is eight independent multiply-add chains over a 16 KiB table: it
// keeps the core's execution ports as busy as the INT8 kernels do, so it
// slows down as they do when another tenant takes the other hyperthread of
// the core. (A dependent chain, which this replaced, leaves the ports idle
// and read 1.1× when the kernels ran 1.5× slower; README, "The sentinel".)
const (
	sentinelReps  = 96 // passes over the table: ≈0.12 ms on a quiet core
	sentinelEvery = 10 * time.Millisecond
	// A reading far above the run's fastest is a sentinel that lost its core
	// to another thread mid-spin; it is capped at this multiple so one such
	// reading cannot decide a window's score.
	sentinelCap = 4
)

var (
	sentinelTable [4096]uint32
	sentinelSink  uint32 // keeps the sums alive
)

// sentinelOnce performs the fixed work once and returns how long it took.
func sentinelOnce() time.Duration {
	start := time.Now()
	var a0, a1, a2, a3, a4, a5, a6, a7 uint32
	d := &sentinelTable
	for range sentinelReps {
		for i := 0; i < len(d); i += 8 {
			a0 += d[i]*3 + uint32(i)
			a1 += d[i+1] * 5
			a2 += d[i+2] * 7
			a3 += d[i+3] * 9
			a4 += d[i+4] * 11
			a5 += d[i+5] * 13
			a6 += d[i+6] * 15
			a7 += d[i+7] * 17
		}
	}
	sentinelSink = a0 ^ a1 ^ a2 ^ a3 ^ a4 ^ a5 ^ a6 ^ a7
	return time.Since(start)
}

// sentinel samples the host for as long as a window runs.
type sentinel struct {
	stop     chan struct{}
	done     chan struct{}
	readings []time.Duration
}

func startSentinel() *sentinel {
	s := &sentinel{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(sentinelEvery)
		defer tick.Stop()
		for {
			s.readings = append(s.readings, sentinelOnce())
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampling and returns the readings.
func (s *sentinel) finish() []time.Duration {
	close(s.stop)
	<-s.done
	return s.readings
}

// host keeps the sentinel's readings over a run, one phase per window.
type host struct {
	phases [][]time.Duration
}

// during runs fn with the sentinel sampling alongside and returns the index
// of the phase that holds the readings.
func (h *host) during(fn func() error) (int, error) {
	s := startSentinel()
	err := fn()
	h.phases = append(h.phases, s.finish())
	return len(h.phases) - 1, err
}

// floor is the fastest reading of the run: the cores at their best.
func (h *host) floor() time.Duration {
	floor := h.phases[0][0]
	for _, rs := range h.phases {
		for _, r := range rs {
			floor = min(floor, r)
		}
	}
	return floor
}

// score is a phase's contention score in ms — the mean of its readings, each
// capped at sentinelCap × floor — and slow is that over the floor.
func (h *host) score(phase int) (score, slow float64) {
	floor := h.floor()
	var sum time.Duration
	for _, r := range h.phases[phase] {
		sum += min(r, sentinelCap*floor)
	}
	mean := float64(sum) / float64(len(h.phases[phase]))
	return mean / float64(time.Millisecond), mean / float64(floor)
}

// outcome is what one operation came to.
type outcome struct {
	units   int // verified masks (or slices of a verified volume); 0 on failure
	failed  bool
	wrong   bool // answered 200 with the wrong bytes
	started time.Time
	done    time.Time
}

// traceCtx says where an operation's spans go; the zero value records none.
type traceCtx struct {
	rec    *recorder
	window int // parent span
	req    string
	lane   int
}

// requestSpans records one request: a client.request span under the window's,
// and under it client.send (start → sent), client.wait (→ answered),
// client.read (→ read) and client.verify (→ done).
func (tc traceCtx) requestSpans(start, sent, answered, read, done time.Time) {
	if tc.rec == nil {
		return
	}
	id := tc.rec.reserve()
	tc.rec.add(id, "client.send", tc.req, tc.lane, start, sent)
	tc.rec.add(id, "client.wait", tc.req, tc.lane, sent, answered)
	tc.rec.add(id, "client.read", tc.req, tc.lane, answered, read)
	tc.rec.add(id, "client.verify", tc.req, tc.lane, read, done)
	tc.rec.finish(id, tc.window, "client.request", tc.req, tc.lane, start, done)
}

// sliceReq is one /v1/segment request drawn from a slice pool.
type sliceReq struct {
	input    int
	enc      int
	tier     string // X-Seneca-Tier; empty: header omitted
	deadline int    // X-Seneca-Deadline-Ms; 0: header omitted
}

// sliceTarget posts slices to a server and verifies the masks.
type sliceTarget struct {
	base string
	hc   *http.Client
	pool *slicePool
}

// segment sends rq and compares the answer byte-for-byte with the oracle's
// mask for that input.
func (t *sliceTarget) segment(rq sliceReq, tc traceCtx) outcome {
	out := outcome{started: time.Now()}
	body := t.pool.bodies[rq.input][rq.enc]
	req, err := http.NewRequest(http.MethodPost, t.base+"/v1/segment", bytes.NewReader(body))
	if err != nil {
		out.failed, out.done = true, time.Now()
		return out
	}
	req.Header.Set("Content-Type", contentTypes[rq.enc])
	if rq.tier != "" {
		req.Header.Set("X-Seneca-Tier", rq.tier)
	}
	if rq.deadline > 0 {
		req.Header.Set("X-Seneca-Deadline-Ms", strconv.Itoa(rq.deadline))
	}
	var wrote, firstByte time.Time
	if tc.rec != nil {
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { wrote = time.Now() },
			GotFirstResponseByte: func() { firstByte = time.Now() },
		}))
	}
	want := t.pool.masks[rq.input]
	var got []byte
	resp, err := t.hc.Do(req)
	status := 0
	if err == nil {
		status = resp.StatusCode
		got, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	read := time.Now()
	switch {
	case err != nil || status != http.StatusOK:
		out.failed = true
	case !bytes.Equal(got, want):
		out.failed, out.wrong = true, true
	default:
		out.units = 1
	}
	out.done = time.Now()
	if !wrote.IsZero() && !firstByte.IsZero() {
		tc.requestSpans(out.started, wrote, firstByte, read, out.done)
	}
	return out
}

// opFunc performs the seq-th operation of a client.
type opFunc func(client, seq int, tc traceCtx) outcome

// runner drives one workload's windows against a child.
type runner struct {
	workload string
	child    *child
	host     *host
	rec      *recorder // nil: untraced run
	seq      []int     // next operation number per closed-loop client
}

// account folds one outcome into w; latency runs from origin (the send
// time in a closed loop, the due time in an open one).
func (w *window) account(o outcome, origin time.Time) {
	w.sent++
	if o.failed {
		w.failed++
		if o.wrong {
			w.wrong++
		}
		return
	}
	w.ops += o.units
	w.latMS = append(w.latMS, float64(o.done.Sub(origin))/float64(time.Millisecond))
}

// closedWindow runs clients lockstep-free closed loops — each sends its next
// operation when its previous one completes — until length has passed, or,
// with length 0, for exactly one operation per client.
func (r *runner) closedWindow(w *window, clients int, length time.Duration, op opFunc) error {
	for len(r.seq) < clients {
		r.seq = append(r.seq, 0)
	}
	rec := r.rec
	if !w.traced {
		rec = nil
	}
	cpu0, err := r.child.cpuTime()
	if err != nil {
		return err
	}
	start := time.Now()
	winSpan := rec.reserve()
	parts := make([]window, clients)
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				tc := traceCtx{rec: rec, window: winSpan, lane: c + 1,
					req: fmt.Sprintf("%s/%d/%d.%d", r.workload, w.index, c, r.seq[c])}
				o := op(c, r.seq[c], tc)
				r.seq[c]++
				parts[c].account(o, o.started)
				parts[c].wall = o.done.Sub(start)
				if length == 0 || time.Since(start) >= length {
					return
				}
			}
		}()
	}
	wg.Wait()
	cpu1, err := r.child.cpuTime()
	if err != nil {
		return err
	}
	w.cpu = cpu1 - cpu0
	for i := range parts {
		w.merge(&parts[i])
	}
	rec.finish(winSpan, 0, "window", fmt.Sprintf("%s/%d", r.workload, w.index), 0, start, start.Add(w.wall))
	return nil
}

// merge adds a client's share of a window to the whole.
func (w *window) merge(p *window) {
	w.wall = max(w.wall, p.wall)
	w.ops += p.ops
	w.sent += p.sent
	w.failed += p.failed
	w.wrong += p.wrong
	w.latMS = append(w.latMS, p.latMS...)
	w.lagMS = append(w.lagMS, p.lagMS...)
}

// openWindow sends schedule's arrivals at their due times whatever the
// server does, over at most openConns connections, and times each from its
// due time. An arrival that finds every connection busy waits client-side;
// the wait shows in both its latency and the generator lag.
func (r *runner) openWindow(w *window, schedule []arrival, send func(a arrival, tc traceCtx) outcome) error {
	rec := r.rec
	if !w.traced {
		rec = nil
	}
	cpu0, err := r.child.cpuTime()
	if err != nil {
		return err
	}
	start := time.Now()
	winSpan := rec.reserve()
	type job struct {
		a   arrival
		seq int
	}
	jobs := make(chan job, len(schedule)) // sized to the sends, so the dispatcher never blocks
	parts := make([]window, openConns)
	var wg sync.WaitGroup
	for c := range openConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				due := start.Add(j.a.due)
				tc := traceCtx{rec: rec, window: winSpan, lane: c + 1,
					req: fmt.Sprintf("%s/%d/%d", r.workload, w.index, j.seq)}
				o := send(j.a, tc)
				parts[c].account(o, due)
				parts[c].lagMS = append(parts[c].lagMS, float64(o.started.Sub(due))/float64(time.Millisecond))
				parts[c].wall = max(parts[c].wall, o.done.Sub(start))
			}
		}()
	}
	for i, a := range schedule {
		time.Sleep(time.Until(start.Add(a.due)))
		jobs <- job{a, i}
	}
	close(jobs)
	wg.Wait()
	cpu1, err := r.child.cpuTime()
	if err != nil {
		return err
	}
	w.cpu = cpu1 - cpu0
	for i := range parts {
		w.merge(&parts[i])
	}
	rec.finish(winSpan, 0, "window", fmt.Sprintf("%s/%d", r.workload, w.index), 0, start, start.Add(w.wall))
	return nil
}

// windows runs windows through run while more(i) holds, sampling the
// sentinel alongside each, and scores them. In a traced run every other
// window records spans, so the two halves of one run give the tracing
// overhead.
func (r *runner) windows(more func(i int) bool, run func(w *window) error) ([]*window, error) {
	var ws []*window
	var phases []int
	for i := 0; more(i); i++ {
		w := &window{index: i, traced: r.rec != nil && i%2 == 1}
		phase, err := r.host.during(func() error { return run(w) })
		if err != nil {
			return nil, err
		}
		ws = append(ws, w)
		phases = append(phases, phase)
	}
	// Scores wait for the last window: the floor is the whole run's.
	for i, w := range ws {
		w.score, w.slow = r.host.score(phases[i])
	}
	return ws, nil
}
