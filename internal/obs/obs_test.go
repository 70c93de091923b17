package obs

import (
	"bytes"
	"log/slog"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("seneca_test_total", "help")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	g := r.Gauge("seneca_test_gauge", "help")
	g.Set(2.5)
	g.Add(-1)
	if g.Value() != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", g.Value())
	}
	// Idempotent re-registration returns the same handles.
	if r.Counter("seneca_test_total", "help") != c {
		t.Fatal("re-registering a counter must return the existing handle")
	}
	if r.Gauge("seneca_test_gauge", "help") != g {
		t.Fatal("re-registering a gauge must return the existing handle")
	}
}

func TestLabeledInstancesAreDistinct(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("seneca_req_total", "h", L("outcome", "ok"))
	b := r.Counter("seneca_req_total", "h", L("outcome", "err"))
	if a == b {
		t.Fatal("different labels must yield different instances")
	}
	a.Add(2)
	b.Inc()
	out := r.Expose()
	for _, want := range []string{
		`seneca_req_total{outcome="ok"} 2`,
		`seneca_req_total{outcome="err"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Label order must not matter for identity.
	c1 := r.Counter("seneca_lbl_total", "h", L("a", "1"), L("b", "2"))
	c2 := r.Counter("seneca_lbl_total", "h", L("b", "2"), L("a", "1"))
	if c1 != c2 {
		t.Fatal("label order must not change metric identity")
	}
}

func TestTypeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("seneca_x_total", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("seneca_x_total", "h")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	for _, bad := range []string{"", "1abc", "with space", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q must be rejected", bad)
				}
			}()
			r.Counter(bad, "h")
		}()
	}
}

func TestHistogramBucketsAndQuantile(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("seneca_lat_seconds", "h", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if math.Abs(h.Sum()-5.56) > 1e-9 {
		t.Fatalf("sum = %v, want 5.56", h.Sum())
	}
	out := r.Expose()
	for _, want := range []string{
		`seneca_lat_seconds_bucket{le="0.01"} 2`,
		`seneca_lat_seconds_bucket{le="0.1"} 3`,
		`seneca_lat_seconds_bucket{le="1"} 4`,
		`seneca_lat_seconds_bucket{le="+Inf"} 5`,
		`seneca_lat_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// The median lands in the (0.01, 0.1] bucket; p999 lands in +Inf and
	// clamps to the highest finite bound.
	qs := h.Quantiles(0.5, 0.999)
	if qs[0] <= 0.01 || qs[0] > 0.1 {
		t.Fatalf("median %v outside its bucket (0.01, 0.1]", qs[0])
	}
	if qs[1] != 1 {
		t.Fatalf("overflow-bucket quantile = %v, want highest finite bound 1", qs[1])
	}
	empty := r.Histogram("seneca_empty_seconds", "h", nil)
	if empty.Quantiles(0.5)[0] != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
}

func TestHistogramLabeled(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("seneca_stage_seconds", "h", []float64{1}, L("stage", "train"))
	h.Observe(0.5)
	out := r.Expose()
	for _, want := range []string{
		`seneca_stage_seconds_bucket{stage="train",le="1"} 1`,
		`seneca_stage_seconds_sum{stage="train"} 0.5`,
		`seneca_stage_seconds_count{stage="train"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestCounterAndGaugeFunc(t *testing.T) {
	r := NewRegistry()
	n := uint64(7)
	r.CounterFunc("seneca_cb_total", "h", func() uint64 { return n })
	r.GaugeFunc("seneca_cb_gauge", "h", func() float64 { return 1.25 })
	out := r.Expose()
	if !strings.Contains(out, "seneca_cb_total 7") || !strings.Contains(out, "seneca_cb_gauge 1.25") {
		t.Fatalf("callback metrics missing:\n%s", out)
	}
	// Re-registration replaces the callback.
	r.CounterFunc("seneca_cb_total", "h", func() uint64 { return 42 })
	if !strings.Contains(r.Expose(), "seneca_cb_total 42") {
		t.Fatal("CounterFunc re-registration must replace the callback")
	}
}

func TestExpositionFormatAndOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("seneca_a_total", "first metric").Inc()
	r.Gauge("seneca_b", "second\nmetric").Set(3)
	out := r.Expose()
	want := "# HELP seneca_a_total first metric\n" +
		"# TYPE seneca_a_total counter\n" +
		"seneca_a_total 1\n" +
		"# HELP seneca_b second metric\n" +
		"# TYPE seneca_b gauge\n" +
		"seneca_b 3\n"
	if out != want {
		t.Fatalf("exposition mismatch:\ngot:\n%s\nwant:\n%s", out, want)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("seneca_esc_total", "h", L("path", "a\"b\\c\nd")).Inc()
	out := r.Expose()
	if !strings.Contains(out, `seneca_esc_total{path="a\"b\\c\nd"} 1`) {
		t.Fatalf("label escaping wrong:\n%s", out)
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("seneca_h_total", "h").Inc()
	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if !strings.Contains(buf.String(), "seneca_h_total 1") {
		t.Fatalf("handler body missing metric:\n%s", buf.String())
	}
}

func TestSpan(t *testing.T) {
	r := NewRegistry()
	sp := r.StartSpan("calibrate")
	time.Sleep(time.Millisecond)
	d := sp.End()
	if d < time.Millisecond {
		t.Fatalf("span duration %v too short", d)
	}
	// Idempotent End: only the first call records.
	sp.End()
	out := r.Expose()
	if !strings.Contains(out, `seneca_stage_runs_total{stage="calibrate"} 1`) {
		t.Fatalf("span must record exactly one run:\n%s", out)
	}
	if !strings.Contains(out, `seneca_stage_duration_seconds_count{stage="calibrate"} 1`) {
		t.Fatalf("span histogram missing:\n%s", out)
	}
}

func TestTimeDefaultRegistry(t *testing.T) {
	before := Default.Counter("seneca_stage_runs_total", "Completed pipeline stage runs.", L("stage", "obs.test")).Value()
	done := Time("obs.test")
	done()
	after := Default.Counter("seneca_stage_runs_total", "Completed pipeline stage runs.", L("stage", "obs.test")).Value()
	if after != before+1 {
		t.Fatalf("Time must record one run on Default (before %d, after %d)", before, after)
	}
}

// TestTimeOnKnownStageIsCheap bounds what one obs.Time of an already
// registered stage allocates. Hot paths time themselves this way (vart prices
// every serving batch under one, twice: placement's Cost and the batch's
// Execute), so the stage's three series are resolved once per registry and a
// later span allocates only itself and its End: re-resolving them per call
// rendered the label set and took two locks each time, and a label escaper
// built per call once made it 37 allocations and ~20 KB.
func TestTimeOnKnownStageIsCheap(t *testing.T) {
	Time("obs.test.cheap")()
	if allocs := testing.AllocsPerRun(100, func() { Time("obs.test.cheap")() }); allocs > 2 {
		t.Fatalf("obs.Time on a registered stage: %.0f allocations, want ≤ 2", allocs)
	}
}

// TestSecondSpanAddsNoSeries: a stage's second span registers nothing new —
// the exposition keeps its series set — and moves each of the stage's three
// series by exactly one run.
func TestSecondSpanAddsNoSeries(t *testing.T) {
	r := NewRegistry()
	r.StartSpan("compile").End()
	series := func() []string {
		var names []string
		for _, line := range strings.Split(r.Expose(), "\n") {
			if name, _, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
				names = append(names, name)
			}
		}
		return names
	}
	before := series()
	l := L("stage", "compile")
	hist := r.Histogram("seneca_stage_duration_seconds", "", StageBuckets, l)
	runs := r.Counter("seneca_stage_runs_total", "", l)
	busy := r.Gauge("seneca_stage_busy_seconds_total", "", l)
	count, busy0 := hist.Count(), busy.Value()

	d := r.StartSpan("compile").End()
	if after := series(); strings.Join(after, "\n") != strings.Join(before, "\n") {
		t.Fatalf("second span changed the series set:\n%v\nwas\n%v", after, before)
	}
	if runs.Value() != 2 || hist.Count() != count+1 {
		t.Fatalf("runs %d, histogram count %d; want 2 and %d", runs.Value(), hist.Count(), count+1)
	}
	if got, want := busy.Value(), busy0+d.Seconds(); got != want {
		t.Fatalf("busy %v, want %v plus the span's %v", got, busy0, d.Seconds())
	}
}

func TestNewLoggerFormat(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf, slog.LevelInfo, "test-bin")
	lg.Info("hello", "frames", 3)
	line := buf.String()
	for _, want := range []string{"component=test-bin", "msg=hello", "frames=3", "level=INFO"} {
		if !strings.Contains(line, want) {
			t.Errorf("log line missing %q: %s", want, line)
		}
	}
	buf.Reset()
	lg.Debug("quiet")
	if buf.Len() != 0 {
		t.Fatal("debug must be filtered at info level")
	}
}

func TestParseLevel(t *testing.T) {
	cases := map[string]slog.Level{
		"debug": slog.LevelDebug, "INFO": slog.LevelInfo, "Warn": slog.LevelWarn,
		"warning": slog.LevelWarn, "error": slog.LevelError, "bogus": slog.LevelInfo,
	}
	for in, want := range cases {
		if got := ParseLevel(in); got != want {
			t.Errorf("ParseLevel(%q) = %v, want %v", in, got, want)
		}
	}
}

func TestFormatFloat(t *testing.T) {
	cases := map[float64]string{
		1:           "1",
		0:           "0",
		1.5:         "1.5",
		0.0005:      "0.0005",
		math.Inf(1): "+Inf",
	}
	for in, want := range cases {
		if got := formatFloat(in); got != want {
			t.Errorf("formatFloat(%v) = %q, want %q", in, got, want)
		}
	}
}
