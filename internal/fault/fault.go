// Package fault is a deterministic fault-injection registry for chaos
// testing the SENECA stack. Production code declares named injection
// points at its real failure seams (backend batch execution, store writes,
// NIfTI decode, cluster node dispatch and rolling-restart replacement);
// tests and the binaries program those points with a probability, a hit
// budget, an error and/or a latency, and the instrumented code misbehaves
// exactly as a flaky edge deployment would — reproducibly, because every
// probabilistic decision draws from one seeded RNG.
//
// The registry is designed to vanish when idle: an unprogrammed Check is a
// single atomic load, so injection points can sit on hot paths (the INT8
// batch loop) without costing the fault-free deployment anything.
//
// Every injection increments the obs counter
// seneca_fault_injected_total{point="..."} on the registry's metrics
// registry (obs.Default for the package-level Default), so a chaos run's
// /metrics scrape shows exactly how much failure was injected next to how
// the system absorbed it.
package fault

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"seneca/internal/obs"
)

// ErrInjected is the default error delivered by an error fault whose
// program does not name a specific error.
var ErrInjected = errors.New("fault: injected failure")

// Fault programs one injection point.
type Fault struct {
	// Prob is the per-hit injection probability. Any value outside (0, 1] —
	// the zero value, a negative, NaN — means 1 (inject on every eligible
	// hit); Apply rejects such a p instead.
	Prob float64
	// Count caps how many times this point injects; 0 means unlimited.
	Count int
	// After skips the first After hits before the point arms — "fail the
	// third batch" is After: 2, Count: 1.
	After int
	// Delay is latency injected before returning (a stall). CheckCtx
	// sleeps interruptibly; Check sleeps the full delay.
	Delay time.Duration
	// Err is the injected error. nil with a Delay programs a pure stall;
	// nil without a Delay injects ErrInjected (a Fault zero value would
	// otherwise be a silent no-op).
	Err error
	// Slow programs a percentile-shaped latency tail instead of the flat
	// Delay: each eligible hit draws a uniform rank and stalls for the
	// Delay of the highest step whose quantile it reaches (a step
	// function, like real slow-node tails: most requests unaffected, the
	// tail stalls hard). Hits below the first step are unaffected and do
	// not count as injections. {Q: 0.9, Delay: 250ms} means the slowest
	// 10% of hits stall 250ms.
	Slow []QuantileDelay
}

// QuantileDelay is one step of a percentile-shaped latency program.
type QuantileDelay struct {
	// Q is the quantile at which this step starts, in [0, 1).
	Q float64
	// Delay is the stall applied from Q up to the next step.
	Delay time.Duration
}

// Error returns an error-fault program: inject err (nil → ErrInjected)
// with the given per-hit probability.
func Error(prob float64, err error) Fault {
	if err == nil {
		err = ErrInjected
	}
	return Fault{Prob: prob, Err: err}
}

// Stall returns a latency-fault program: sleep d with the given per-hit
// probability, then return no error.
func Stall(prob float64, d time.Duration) Fault { return Fault{Prob: prob, Delay: d} }

// SlowTail returns a slow-node program: the slowest (1-q) fraction of hits
// stall for d, the rest pass untouched — the tail-latency shape hedging
// and brownout exist to absorb.
func SlowTail(q float64, d time.Duration) Fault {
	return Fault{Slow: []QuantileDelay{{Q: q, Delay: d}}}
}

// point is one programmed injection point.
type point struct {
	f       Fault
	hits    int // eligible Check calls seen
	fired   int // injections performed
	counter *obs.Counter
}

// Registry holds the programmed injection points. The zero value is not
// usable; construct with NewRegistry. All methods are safe for concurrent
// use.
type Registry struct {
	armed atomic.Int32 // number of programmed points; 0 short-circuits Check

	mu      sync.Mutex
	points  map[string]*point
	rng     *rand.Rand
	metrics *obs.Registry
}

// NewRegistry constructs a registry whose probabilistic decisions draw
// from a seeded RNG and whose injection counters register on metrics
// (nil → obs.Default).
func NewRegistry(seed int64, metrics *obs.Registry) *Registry {
	if metrics == nil {
		metrics = obs.Default
	}
	return &Registry{
		points:  make(map[string]*point),
		rng:     rand.New(rand.NewSource(seed)),
		metrics: metrics,
	}
}

// Default is the process-wide registry the library injection points
// consult. Tests program it directly (and must Reset it on cleanup); the
// binaries program it from a -faults spec string.
var Default = NewRegistry(1, nil)

// Seed reseeds the registry's RNG so a chaos run replays the same
// probabilistic injection sequence (given the same Check ordering).
func (r *Registry) Seed(seed int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rng = rand.New(rand.NewSource(seed))
}

// Enable programs (or reprograms) the named injection point. Hit and fire
// counts restart from zero.
func (r *Registry) Enable(name string, f Fault) {
	if !(f.Prob > 0 && f.Prob <= 1) { // NaN included
		f.Prob = 1
	}
	if len(f.Slow) > 0 {
		steps := append([]QuantileDelay(nil), f.Slow...)
		for i := range steps {
			if steps[i].Q < 0 {
				steps[i].Q = 0
			}
			if steps[i].Q >= 1 {
				steps[i].Q = 1 - 1e-9
			}
		}
		sort.Slice(steps, func(i, j int) bool { return steps[i].Q < steps[j].Q })
		f.Slow = steps
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.points[name]; !exists {
		r.armed.Add(1)
	}
	r.points[name] = &point{
		f: f,
		counter: r.metrics.Counter("seneca_fault_injected_total",
			"Faults injected by the chaos registry, by injection point.",
			obs.L("point", name)),
	}
}

// Disable removes the named point's program. Its injection counter keeps
// its value (counters are monotonic).
func (r *Registry) Disable(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, exists := r.points[name]; exists {
		delete(r.points, name)
		r.armed.Add(-1)
	}
}

// Reset removes every programmed point.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.armed.Store(0)
	r.points = make(map[string]*point)
}

// Active returns the programmed point names, sorted.
func (r *Registry) Active() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.points))
	for n := range r.points {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Injected returns how many times the named point has fired since it was
// last (re)programmed.
func (r *Registry) Injected(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if p, ok := r.points[name]; ok {
		return p.fired
	}
	return 0
}

// decide consumes one hit of the named point and returns the injection to
// perform, if any.
func (r *Registry) decide(name string) (delay time.Duration, err error, fire bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.points[name]
	if !ok {
		return 0, nil, false
	}
	p.hits++
	if p.hits <= p.f.After {
		return 0, nil, false
	}
	if p.f.Count > 0 && p.fired >= p.f.Count {
		return 0, nil, false
	}
	if p.f.Prob < 1 && r.rng.Float64() >= p.f.Prob {
		return 0, nil, false
	}
	delay = p.f.Delay
	if len(p.f.Slow) > 0 {
		// Draw a rank and take the highest step it reaches. A hit below
		// the first step is unaffected — it is not an injection, so the
		// fire count stays an exact census of the stalled hits.
		u := r.rng.Float64()
		delay = 0
		for _, s := range p.f.Slow {
			if u >= s.Q {
				delay = s.Delay
			}
		}
		if delay == 0 && p.f.Err == nil {
			return 0, nil, false
		}
	}
	p.fired++
	p.counter.Inc()
	err = p.f.Err
	if err == nil && delay == 0 {
		err = ErrInjected
	}
	if err != nil {
		err = fmt.Errorf("fault: point %s: %w", name, err)
	}
	return delay, err, true
}

// CheckCtx consults the named injection point: it sleeps any programmed
// delay (interruptibly — a cancelled ctx cuts the stall short and returns
// ctx.Err()) and returns the programmed error, or nil when the point does
// not fire. An unprogrammed point costs one atomic load.
func (r *Registry) CheckCtx(ctx context.Context, name string) error {
	if r.armed.Load() == 0 {
		return nil
	}
	delay, err, fire := r.decide(name)
	if !fire {
		return nil
	}
	if delay > 0 {
		t := time.NewTimer(delay)
		defer t.Stop()
		if ctx == nil {
			<-t.C
		} else {
			select {
			case <-t.C:
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	return err
}

// Check is CheckCtx without a context: stalls sleep their full delay.
func (r *Registry) Check(name string) error { return r.CheckCtx(nil, name) }

// Package-level conveniences over Default.

// Enable programs a point on the Default registry.
func Enable(name string, f Fault) { Default.Enable(name, f) }

// Reset clears every program on the Default registry.
func Reset() { Default.Reset() }

// Seed reseeds the Default registry.
func Seed(seed int64) { Default.Seed(seed) }

// Check consults a point on the Default registry.
func Check(name string) error { return Default.Check(name) }

// CheckCtx consults a point on the Default registry with a context.
func CheckCtx(ctx context.Context, name string) error { return Default.CheckCtx(ctx, name) }

// Injected returns a Default point's fire count.
func Injected(name string) int { return Default.Injected(name) }

// Active lists the Default registry's programmed points.
func Active() []string { return Default.Active() }

// Apply parses a spec string and programs the registry. The spec is a
// semicolon-separated list of entries; each entry is a point name followed
// by comma-separated options:
//
//	backend.execute.dpu-sim,p=0.1,count=20;backend.execute,p=0.05,delay=250ms
//
// Options: p=<float> probability in (0, 1], count=<n> fire budget (0:
// unlimited), after=<n> skipped hits, delay=<duration> stall latency,
// slow=<q>:<duration> one step of a percentile-shaped latency tail (q is
// p50/p99/p999-style or a raw fraction; repeat the option to stack steps:
// slow=p50:20ms,slow=p99:400ms), err[=<message>] inject an error (implied
// when no delay or slow program is given). Counts and durations must not be
// negative. The whole spec is parsed before any point is programmed, so a
// spec that returns an error arms nothing.
func (r *Registry) Apply(spec string) error {
	type entry struct {
		name string
		f    Fault
	}
	var entries []entry
	for _, text := range strings.Split(spec, ";") {
		text = strings.TrimSpace(text)
		if text == "" {
			continue
		}
		fields := strings.Split(text, ",")
		name := strings.TrimSpace(fields[0])
		if name == "" {
			return fmt.Errorf("fault: entry %q has no point name", text)
		}
		f, err := parseOptions(fields[1:])
		if err != nil {
			return fmt.Errorf("fault: point %s: %w", name, err)
		}
		entries = append(entries, entry{name, f})
	}
	for _, e := range entries {
		r.Enable(e.name, e.f)
	}
	return nil
}

// parseOptions parses one spec entry's options into a Fault, rejecting
// values Enable would otherwise clamp into a different program.
func parseOptions(opts []string) (Fault, error) {
	var f Fault
	wantErr := false
	for _, opt := range opts {
		opt = strings.TrimSpace(opt)
		key, val, _ := strings.Cut(opt, "=")
		var err error
		switch key {
		case "p":
			f.Prob, err = strconv.ParseFloat(val, 64)
			if err == nil && !(f.Prob > 0 && f.Prob <= 1) {
				err = errors.New("probability outside (0, 1]")
			}
		case "count":
			f.Count, err = parseCount(val)
		case "after":
			f.After, err = parseCount(val)
		case "delay":
			f.Delay, err = parseDelay(val)
		case "slow":
			var qd QuantileDelay
			qd, err = parseSlowStep(val)
			f.Slow = append(f.Slow, qd)
		case "err":
			wantErr = true
			if val != "" {
				f.Err = errors.New(val)
			}
		default:
			return Fault{}, fmt.Errorf("unknown option %q", opt)
		}
		if err != nil {
			return Fault{}, fmt.Errorf("bad option %q: %v", opt, err)
		}
	}
	if wantErr && f.Err == nil {
		f.Err = ErrInjected
	}
	if (f.Delay > 0 || len(f.Slow) > 0) && !wantErr {
		f.Err = nil // pure stall unless an error was asked for
	}
	return f, nil
}

// parseCount parses a non-negative hit count.
func parseCount(val string) (int, error) {
	n, err := strconv.Atoi(val)
	if err == nil && n < 0 {
		err = errors.New("negative count")
	}
	return n, err
}

// parseDelay parses a non-negative duration.
func parseDelay(val string) (time.Duration, error) {
	d, err := time.ParseDuration(val)
	if err == nil && d < 0 {
		err = errors.New("negative duration")
	}
	return d, err
}

// parseSlowStep parses one slow= option value: "<q>:<duration>" where q is
// either pNN percentile shorthand (p50 → 0.5, p99 → 0.99, p999 → 0.999) or
// a raw fraction in [0, 1).
func parseSlowStep(val string) (QuantileDelay, error) {
	qs, ds, ok := strings.Cut(val, ":")
	if !ok {
		return QuantileDelay{}, fmt.Errorf("want <quantile>:<duration>, got %q", val)
	}
	var q float64
	if len(qs) > 1 && (qs[0] == 'p' || qs[0] == 'P') {
		digits := qs[1:]
		n, err := strconv.Atoi(digits)
		if err != nil || n < 0 {
			return QuantileDelay{}, fmt.Errorf("bad percentile %q", qs)
		}
		q = float64(n)
		for range digits {
			q /= 10
		}
	} else {
		var err error
		q, err = strconv.ParseFloat(qs, 64)
		if err != nil {
			return QuantileDelay{}, fmt.Errorf("bad quantile %q", qs)
		}
	}
	if !(q >= 0 && q < 1) { // NaN included
		return QuantileDelay{}, fmt.Errorf("quantile %q outside [0, 1)", qs)
	}
	d, err := parseDelay(ds)
	if err != nil {
		return QuantileDelay{}, fmt.Errorf("bad duration %q: %v", ds, err)
	}
	return QuantileDelay{Q: q, Delay: d}, nil
}

// Apply programs the Default registry from a spec string.
func Apply(spec string) error { return Default.Apply(spec) }
