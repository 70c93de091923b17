// Package obs is the unified observability layer of the SENECA stack: a
// stdlib-only, concurrency-safe metrics registry (counters, gauges,
// histograms with fixed bucket boundaries) with Prometheus text-format
// exposition, a span/timer API for stage-level pipeline timing
// (train→calibrate→quantize→compile→simulate), and a shared log/slog setup
// for the binaries.
//
// Design rules:
//
//   - Hot paths never allocate and never take a registry lock: every
//     metric handle is resolved once at wire-up time and updated with
//     plain atomics afterwards.
//   - Registration is idempotent: asking for an existing name+labels
//     returns the same handle, so independent subsystems can share one
//     registry without coordination. Re-registering a name with a
//     different metric type is a programming error and panics.
//   - Exposition is a point-in-time snapshot rendered in the Prometheus
//     text format (one scrape shows the whole pipeline), deterministic in
//     its ordering so golden tests can pin it.
//
// The package-level Default registry is what the cmd/ binaries and the
// pipeline stage timers use; libraries accept an explicit *Registry so
// tests can isolate themselves.
package obs

import (
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Default is the process-wide registry shared by the binaries and the
// pipeline stage timers.
var Default = NewRegistry()

// Label is one metric dimension, e.g. {"stage", "train"}.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// metric is the common interface of counter/gauge/histogram samples.
type metric interface {
	// write renders the samples of one labeled instance. name is the
	// family name, lbl the pre-rendered label string ("" or `{k="v"}`).
	write(sb *strings.Builder, name, lbl string)
}

// family groups all labeled instances of one metric name.
type family struct {
	name, help, typ string

	mu    sync.Mutex
	insts map[string]metric // label-string → instance
	order []string          // registration order of label strings
}

// Registry is a concurrent metric registry. The zero value is not usable;
// construct with NewRegistry.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
	ord  []string // registration order of family names

	stages sync.Map // stage name → *stageSeries (StartSpan)
}

// NewRegistry constructs an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// validName reports whether s is a legal Prometheus metric/label name.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// renderLabels serializes labels deterministically (sorted by key) in the
// exposition syntax, escaping values per the Prometheus text format.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		sb.WriteString(labelEscaper.Replace(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

// labelEscaper escapes a label value per the Prometheus text format. It is
// built once: a Replacer is safe for concurrent use, and building one costs
// more than every other step of registering a known series.
var labelEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)

// register resolves (name, labels) to an existing instance or installs the
// one produced by mk. It panics on invalid names or a type mismatch with a
// prior registration — both are wiring bugs, not runtime conditions.
func (r *Registry) register(name, help, typ string, labels []Label, mk func() metric) metric {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l.Key) {
			panic(fmt.Sprintf("obs: metric %q: invalid label key %q", name, l.Key))
		}
	}
	r.mu.Lock()
	f := r.fams[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, insts: make(map[string]metric)}
		r.fams[name] = f
		r.ord = append(r.ord, name)
	}
	r.mu.Unlock()
	if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s", name, typ, f.typ))
	}

	key := renderLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if m, ok := f.insts[key]; ok {
		return m
	}
	m := mk()
	f.insts[key] = m
	f.order = append(f.order, key)
	return m
}

// ---- Counter -----------------------------------------------------------

// Counter is a monotonically increasing uint64 metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n. Negative deltas are a programming error on a counter and are
// ignored rather than corrupting the monotonic series.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) write(sb *strings.Builder, name, lbl string) {
	fmt.Fprintf(sb, "%s%s %d\n", name, lbl, c.v.Load())
}

// Counter registers (or finds) a counter.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	m := r.register(name, help, "counter", labels, func() metric { return &Counter{} })
	return m.(*Counter)
}

// counterFunc renders a counter whose value is read from a callback at
// scrape time — used to re-export pre-existing atomic counters (e.g. the
// serving tier's) without double bookkeeping.
type counterFunc struct {
	fn atomic.Pointer[func() uint64]
}

func (c *counterFunc) write(sb *strings.Builder, name, lbl string) {
	fmt.Fprintf(sb, "%s%s %d\n", name, lbl, (*c.fn.Load())())
}

// CounterFunc registers a counter backed by fn, called at scrape time.
// Re-registering the same name+labels replaces the callback (the newest
// owner of the name wins), keeping wire-up idempotent across reconnects.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	m := r.register(name, help, "counter", labels, func() metric { return &counterFunc{} })
	m.(*counterFunc).fn.Store(&fn)
}

// ---- Gauge -------------------------------------------------------------

// Gauge is a float64 metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add atomically adds d.
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (g *Gauge) write(sb *strings.Builder, name, lbl string) {
	fmt.Fprintf(sb, "%s%s %s\n", name, lbl, formatFloat(g.Value()))
}

// Gauge registers (or finds) a gauge.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	m := r.register(name, help, "gauge", labels, func() metric { return &Gauge{} })
	return m.(*Gauge)
}

// gaugeFunc renders a gauge read from a callback at scrape time.
type gaugeFunc struct {
	fn atomic.Pointer[func() float64]
}

func (g *gaugeFunc) write(sb *strings.Builder, name, lbl string) {
	fmt.Fprintf(sb, "%s%s %s\n", name, lbl, formatFloat((*g.fn.Load())()))
}

// GaugeFunc registers a gauge backed by fn, called at scrape time.
// Re-registering the same name+labels replaces the callback.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	m := r.register(name, help, "gauge", labels, func() metric { return &gaugeFunc{} })
	m.(*gaugeFunc).fn.Store(&fn)
}

// ---- Histogram ---------------------------------------------------------

// DefBuckets are the default latency buckets in seconds: the R10
// preferred-number series (1, 1.25, 1.6, 2, 2.5, 3.15, 4, 5, 6.3, 8 × 10ᵏ)
// from 10 µs to 100 s, 71 bounds at most 1.28× apart. Every latency quantile
// the serving tier reports is interpolated on them, so a 0.1 ms front-door
// request resolves as finely as a 100 ms paced batch.
var DefBuckets = r10(-5, 2)

// r10 is the R10 series from 10^from to 10^to. Each bound is parsed from its
// decimal spelling, so it is the float64 nearest that decimal and renders
// back as it (le="0.000315", not a product's rounding residue).
func r10(from, to int) []float64 {
	var out []float64
	for k := from; k < to; k++ {
		for _, m := range []string{"1", "1.25", "1.6", "2", "2.5", "3.15", "4", "5", "6.3", "8"} {
			v, _ := strconv.ParseFloat(fmt.Sprintf("%se%d", m, k), 64)
			out = append(out, v)
		}
	}
	return append(out, math.Pow10(to))
}

// BatchBuckets are occupancy buckets for micro-batch size histograms.
var BatchBuckets = []float64{1, 2, 4, 8, 16, 32, 64}

// Histogram is a fixed-boundary cumulative histogram. Observations and
// exposition are lock-free; a scrape concurrent with observations sees a
// consistent-per-bucket (not cross-bucket) snapshot, like every Prometheus
// client.
type Histogram struct {
	bounds  []float64 // upper bounds, ascending, +Inf implicit
	counts  []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits of the running sum
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound ≥ v.
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.counts) {
		h.counts[i].Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Quantiles estimates several quantiles (each 0 ≤ q ≤ 1) of everything
// observed, from one snapshot of the bucket counts, so the returned values
// are mutually consistent even while other goroutines keep observing.
// Results are in qs order, interpolated within the owning bucket as PromQL's
// histogram_quantile does: the highest finite bound when a quantile lands in
// the +Inf bucket, 0 with no observations.
func (h *Histogram) Quantiles(qs ...float64) []float64 {
	return h.Snapshot().DeltaQuantiles(HistogramSnapshot{}, qs...)
}

// HistogramSnapshot is a point-in-time copy of a histogram's bucket state.
// Two snapshots of the same histogram delimit a window: DeltaQuantiles over
// the pair estimates quantiles of only the observations that landed between
// them, which is what feedback controllers want (recent p99, not
// since-boot p99).
type HistogramSnapshot struct {
	bounds []float64
	counts []uint64
	total  uint64
}

// Snapshot copies the current bucket counts. Like a scrape, the copy is
// consistent per bucket, not across buckets, under concurrent Observe.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		bounds: h.bounds,
		counts: make([]uint64, len(h.counts)),
	}
	var finite uint64
	for i := range h.counts {
		s.counts[i] = h.counts[i].Load()
		finite += s.counts[i]
	}
	s.total = h.count.Load()
	if finite > s.total {
		s.total = finite
	}
	return s
}

// Count returns the total observations captured by the snapshot.
func (s HistogramSnapshot) Count() uint64 { return s.total }

// DeltaQuantiles estimates quantiles of the observations recorded between
// prev and s (s must be the later snapshot of the same histogram; a
// zero-value prev means "since the beginning"). With no observations in the
// window every quantile is 0, so callers can treat an idle window
// explicitly instead of acting on a stale tail.
func (s HistogramSnapshot) DeltaQuantiles(prev HistogramSnapshot, qs ...float64) []float64 {
	out := make([]float64, len(qs))
	if len(s.bounds) == 0 {
		return out
	}
	counts := make([]uint64, len(s.counts))
	for i := range s.counts {
		counts[i] = s.counts[i]
		if i < len(prev.counts) && prev.counts[i] <= counts[i] {
			counts[i] -= prev.counts[i]
		}
	}
	total := s.total
	if prev.total <= total {
		total -= prev.total
	}
	for k, q := range qs {
		out[k] = bucketQuantile(s.bounds, counts, total, q)
	}
	return out
}

// bucketQuantile is the one interpolation every quantile goes through:
// given ascending finite bucket bounds, per-bucket (non-cumulative) counts
// and the grand total (which may exceed the finite-bucket sum when values
// landed past the last bound), it estimates the q-quantile.
func bucketQuantile(bounds []float64, counts []uint64, total uint64, q float64) float64 {
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum uint64
	for i, b := range bounds {
		c := counts[i]
		if float64(cum+c) >= rank {
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			if c == 0 {
				return b
			}
			frac := (rank - float64(cum)) / float64(c)
			return lo + (b-lo)*frac
		}
		cum += c
	}
	return bounds[len(bounds)-1]
}

func (h *Histogram) write(sb *strings.Builder, name, lbl string) {
	// Cumulative bucket counts with le labels; merge into existing labels.
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(sb, "%s_bucket%s %d\n", name, mergeLabel(lbl, "le", formatFloat(b)), cum)
	}
	count := h.count.Load()
	fmt.Fprintf(sb, "%s_bucket%s %d\n", name, mergeLabel(lbl, "le", "+Inf"), count)
	fmt.Fprintf(sb, "%s_sum%s %s\n", name, lbl, formatFloat(h.Sum()))
	fmt.Fprintf(sb, "%s_count%s %d\n", name, lbl, count)
}

// mergeLabel inserts one extra k="v" pair into a pre-rendered label string.
func mergeLabel(lbl, k, v string) string {
	pair := fmt.Sprintf("%s=%q", k, v)
	if lbl == "" {
		return "{" + pair + "}"
	}
	return lbl[:len(lbl)-1] + "," + pair + "}"
}

// Histogram registers (or finds) a histogram with the given ascending
// bucket upper bounds (nil → DefBuckets). Boundaries are fixed at first
// registration; later registrations of the same name+labels return the
// existing instance regardless of the buckets argument.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %q: buckets not strictly ascending", name))
		}
	}
	m := r.register(name, help, "histogram", labels, func() metric {
		h := &Histogram{bounds: append([]float64(nil), buckets...)}
		h.counts = make([]atomic.Uint64, len(h.bounds))
		return h
	})
	return m.(*Histogram)
}

// ---- Exposition --------------------------------------------------------

// formatFloat renders floats the way Prometheus expects: integers without
// an exponent, everything else in shortest-round-trip form.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format (version 0.0.4). Families appear in registration order, labeled
// instances within a family in their registration order, so output is
// deterministic for a fixed wire-up sequence.
func (r *Registry) WritePrometheus(sb *strings.Builder) {
	r.mu.Lock()
	names := append([]string(nil), r.ord...)
	r.mu.Unlock()
	for _, name := range names {
		r.mu.Lock()
		f := r.fams[name]
		r.mu.Unlock()
		if f == nil {
			continue
		}
		f.mu.Lock()
		keys := append([]string(nil), f.order...)
		insts := make([]metric, len(keys))
		for i, k := range keys {
			insts[i] = f.insts[k]
		}
		f.mu.Unlock()
		if f.help != "" {
			fmt.Fprintf(sb, "# HELP %s %s\n", f.name, strings.ReplaceAll(f.help, "\n", " "))
		}
		fmt.Fprintf(sb, "# TYPE %s %s\n", f.name, f.typ)
		for i, m := range insts {
			m.write(sb, f.name, keys[i])
		}
	}
}

// Expose returns the full exposition as a string.
func (r *Registry) Expose() string {
	var sb strings.Builder
	r.WritePrometheus(&sb)
	return sb.String()
}

// Handler returns an http.Handler serving the registry in the Prometheus
// text format — mount it at GET /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		var sb strings.Builder
		r.WritePrometheus(&sb)
		w.Write([]byte(sb.String()))
	})
}
