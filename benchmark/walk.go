package main

import (
	"fmt"
	"runtime"
	"time"
)

// metric is one printed number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// walk is the layer walk: it times calls into each module's public
// functions in-process, one call at a time, and keeps the median of each.
// Every probe_*.go file adds its module's numbers through it.
type walk struct {
	workload string
	k        int           // samples per timing
	limit    time.Duration // a timing stops early once its samples took this long
	rec      *recorder
	parent   int // the walk.request span the current probe's samples belong to

	vals    map[string]metric
	samples map[string]int
}

func newWalk(workload string, k int, limit time.Duration, rec *recorder) *walk {
	return &walk{workload: workload, k: k, limit: limit, rec: rec,
		vals: map[string]metric{}, samples: map[string]int{}}
}

// timeUnits maps a time unit to what one of it lasts.
var timeUnits = map[string]time.Duration{
	"s": time.Second, "ms": time.Millisecond, "us": time.Microsecond, "ns": time.Nanosecond,
}

// unitOf returns the unit the perLayer table gives a metric.
func unitOf(name string) string {
	for _, d := range perLayer {
		if d.name == name {
			return d.unit
		}
	}
	panic("walk: " + name + " is not in the perLayer table")
}

// timing is one thing the walk times: fn performs reps operations per call,
// and the median time of one operation is stored under name.
type timing struct {
	name string
	reps int
	fn   func() error
}

// sample times one call at a time, one operation per call.
func (wk *walk) sample(name string, fn func() error) error {
	return wk.sampleEach(timing{name, 1, fn})
}

// sampleEach calls every timing's fn in turn, up to k rounds (at least 3,
// stopping early once the rounds have taken the time limit per timing),
// records each call as a span named after the metric, and stores each
// median. Timings whose difference matters are sampled together, so a drift
// of the host during the probe hits them alike.
func (wk *walk) sampleEach(ts ...timing) error {
	ds := make([][]float64, len(ts))
	begin := time.Now()
	for i := 0; i < wk.k && (i < 3 || time.Since(begin) < wk.limit*time.Duration(len(ts))); i++ {
		for j, t := range ts {
			start := time.Now()
			if err := t.fn(); err != nil {
				return fmt.Errorf("%s: %w", t.name, err)
			}
			end := time.Now()
			wk.rec.add(wk.parent, t.name, fmt.Sprintf("%s/walk/%d", wk.workload, i), 0, start, end)
			ds[j] = append(ds[j], float64(end.Sub(start))/float64(t.reps))
		}
	}
	for j, t := range ts {
		wk.setDuration(t.name, time.Duration(median(ds[j])))
		wk.samples[t.name] = len(ds[j])
	}
	return nil
}

// setDuration stores d under name in the time unit the table gives it.
func (wk *walk) setDuration(name string, d time.Duration) {
	unit := unitOf(name)
	wk.vals[name] = metric{Value: float64(d) / float64(timeUnits[unit]), Unit: unit}
}

// set stores a value that is not a timing.
func (wk *walk) set(name string, v float64) {
	wk.vals[name] = metric{Value: v, Unit: unitOf(name)}
}

func (wk *walk) get(name string) float64 { return wk.vals[name].Value }

// probe runs one module's probe function under its own walk.request span.
func (wk *walk) probe(module string, fn func() error) error {
	id := wk.rec.reserve()
	wk.parent = id
	start := time.Now()
	err := fn()
	wk.rec.finish(id, 0, "walk.request", wk.workload+"/walk/"+module, 0, start, time.Now())
	wk.parent = 0
	if err != nil {
		return fmt.Errorf("layer walk, %s: %w", module, err)
	}
	return nil
}

// allocsPer runs fn n times and returns the mean number of
// heap allocations and bytes allocated per call.
func allocsPer(n int, fn func()) (allocs, bytes float64) {
	fn() // warm pools and lazy state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range n {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}
