package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0.50, 50}, {0.95, 95}, {0.99, 99}, {1, 100}} {
		if got := percentile(v, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}

func TestSupportedNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{999, 0.99, false}, {1000, 0.99, true},
		{199, 0.95, false}, {200, 0.95, true},
		{19, 0.50, false}, {20, 0.50, true},
	} {
		if got := supported(c.n, c.q); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

// The windows a run reports on are chosen by sentinel score alone: giving
// the same scores wildly different outcomes must not change the choice.
func TestQuietestHalfIsBySentinelOnly(t *testing.T) {
	scores := []float64{30, 18, 25, 17, 40, 18, 22, 19}
	build := func(ops func(i int) int) []*window {
		ws := make([]*window, len(scores))
		for i, s := range scores {
			ws[i] = &window{index: i, score: s, ops: ops(i), wall: time.Second, latMS: []float64{float64(ops(i))}}
		}
		return ws
	}
	indices := func(ws []*window) []int {
		var out []int
		for _, w := range quietestHalf(ws) {
			out = append(out, w.index)
		}
		return out
	}
	want := []int{3, 1, 5, 7} // 17, 18 (index 1 before 5 on the tie), 18, 19
	good := indices(build(func(i int) int { return 1000 - i }))
	bad := indices(build(func(i int) int { return i * i }))
	if !reflect.DeepEqual(good, want) || !reflect.DeepEqual(bad, want) {
		t.Errorf("chosen windows %v and %v, want %v both times", good, bad, want)
	}
	if n := len(quietestHalf(build(func(int) int { return 1 })[:5])); n != 3 {
		t.Errorf("half of 5 windows = %d, want 3", n)
	}
}

func TestPoolLatenciesAddsNextQuietestUntilEnough(t *testing.T) {
	var ws []*window
	for i := range 8 {
		ws = append(ws, &window{index: i, score: float64(i), latMS: []float64{float64(i), float64(i) + 0.5}})
	}
	if got := len(poolLatencies(ws, 1)); got != 8 {
		t.Errorf("quietest half holds %d samples, want 8", got)
	}
	pool := poolLatencies(ws, 11)
	if len(pool) != 12 {
		t.Errorf("pool for 11 samples holds %d, want 12 (six windows)", len(pool))
	}
	if !sort.Float64sAreSorted(pool) || pool[len(pool)-1] != 5.5 {
		t.Errorf("pool = %v, want sorted and ending with window 5's samples", pool)
	}
	if got := len(poolLatencies(ws, 1000)); got != 16 {
		t.Errorf("exhausted pool holds %d samples, want all 16", got)
	}
}

func TestPoissonScheduleFollowsSeed(t *testing.T) {
	const windows, rate = 4, 40.0
	length := 1250 * time.Millisecond
	a := poissonSchedule(7, windows, length, rate, poolSize)
	b := poissonSchedule(7, windows, length, rate, poolSize)
	c := poissonSchedule(8, windows, length, rate, poolSize)
	if !reflect.DeepEqual(a, b) {
		t.Error("equal seeds gave different schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds gave the same schedule")
	}
	for w, as := range a {
		if len(as) != 50 {
			t.Errorf("window %d holds %d arrivals, want rate × length = 50", w, len(as))
		}
		for i, x := range as {
			if x.due < 0 || x.due >= length || x.input < 0 || x.input >= poolSize {
				t.Fatalf("window %d arrival %d out of range: %+v", w, i, x)
			}
			if i > 0 && x.due < as[i-1].due {
				t.Fatalf("window %d not in due order at %d", w, i)
			}
		}
	}
}

func TestParseServeStatzFixture(t *testing.T) {
	body, err := os.ReadFile("testdata/serve_statz.json")
	if err != nil {
		t.Fatal(err)
	}
	st, err := parseStatz[serveStatz](body, "accepted")
	if err != nil {
		t.Fatal(err)
	}
	if st.Accepted != 34 || st.Completed != 34 || st.Batches != 20 || st.Expired != 0 || st.Failed != 0 {
		t.Errorf("counters = %+v", st)
	}
	if st.MeanBatch != 1.7 || st.P50LatencyMS <= 0 || st.P99LatencyMS < st.P50LatencyMS {
		t.Errorf("derived fields = %+v", st)
	}
	if _, err := parseStatz[clusterStatz](body, "interactive"); err == nil {
		t.Error("a serve /statz body parsed as a cluster one")
	}
}

func TestParseClusterStatzFixture(t *testing.T) {
	body, err := os.ReadFile("testdata/cluster_statz.json")
	if err != nil {
		t.Fatal(err)
	}
	st, err := parseStatz[clusterStatz](body, "interactive")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Nodes) != 2 || st.Nodes[0].Completed+st.Nodes[1].Completed != 30 {
		t.Errorf("nodes = %+v", st.Nodes)
	}
	if st.Interactive.Submitted != 20 || st.Interactive.Completed != 20 || st.Batch.Submitted != 10 || st.Batch.Shed != 0 {
		t.Errorf("tiers = %+v %+v", st.Interactive, st.Batch)
	}
}

func TestParsePromFixture(t *testing.T) {
	text, err := os.ReadFile("testdata/study_metrics.txt")
	if err != nil {
		t.Fatal(err)
	}
	samples, err := parseProm(string(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := promValue(samples, "seneca_study_stage_duration_seconds_count", "stage", "infer"); got != 2 {
		t.Errorf("infer stage count = %v, want 2", got)
	}
	if got := promValue(samples, "seneca_study_stage_duration_seconds_sum", "stage", "infer"); got <= 0 {
		t.Errorf("infer stage sum = %v, want > 0", got)
	}
	if got := promValue(samples, "seneca_serve_frames_total", "", ""); got != 8 {
		t.Errorf("frames total = %v, want 8", got)
	}
	if got := promValue(samples, "seneca_serve_requests_total", "outcome", "completed"); got != 8 {
		t.Errorf("completed requests = %v, want 8", got)
	}
	if got := promValue(samples, "no_such_series", "", ""); got != 0 {
		t.Errorf("absent series = %v, want 0", got)
	}
}

func TestParsePromLabelEdgeCases(t *testing.T) {
	samples, err := parseProm("# HELP x y\nx{a=\"1,2\",b=\"q\\\"z\"} 3.5\ny 4 1700000000\n\n")
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 || samples[0].labels["a"] != "1,2" || samples[0].labels["b"] != `q"z` || samples[0].value != 3.5 {
		t.Errorf("labelled sample = %+v", samples)
	}
	if samples[1].name != "y" || samples[1].value != 4 {
		t.Errorf("bare sample with timestamp = %+v", samples[1])
	}
	for _, bad := range []string{"x{a=1} 2", "x{a=\"1\" 2", "x", "x{} nope"} {
		if _, err := parseProm(bad); err == nil {
			t.Errorf("parseProm(%q) succeeded", bad)
		}
	}
}

func TestParseProcFiles(t *testing.T) {
	cpu, err := parseProcStatCPU("1234 (seneca serve) S 1 1234 1234 0 -1 4194560 900 0 0 0 250 50 0 0 20 0 9 0 100 1 2 3")
	if err != nil {
		t.Fatal(err)
	}
	if cpu != 3*time.Second {
		t.Errorf("utime 250 + stime 50 ticks = %v, want 3s", cpu)
	}
	if _, err := parseProcStatCPU("garbage"); err == nil {
		t.Error("garbage stat line parsed")
	}
	rss, err := parseVmHWM("Name:\tx\nVmPeak:\t  99999 kB\nVmHWM:\t   23552 kB\nVmRSS:\t 100 kB\n")
	if err != nil {
		t.Fatal(err)
	}
	if rss != 23 {
		t.Errorf("VmHWM = %v MiB, want 23", rss)
	}
	if _, err := parseVmHWM("Name:\tx\n"); err == nil {
		t.Error("status without VmHWM parsed")
	}
}

func TestRecorderSelfTimeIsSpanMinusChildren(t *testing.T) {
	r := newRecorder()
	t0 := r.epoch
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	parent := r.reserve()
	r.add(parent, "client.send", "w/0/0", 1, at(0), at(1))
	r.add(parent, "client.wait", "w/0/0", 1, at(1), at(9))
	r.finish(parent, 0, "client.request", "w/0/0", 1, at(0), at(10))
	self := r.selfTimes()
	if got := self["client.request"]; len(got) != 1 || got[0] != time.Millisecond {
		t.Errorf("request self time = %v, want [1ms]", got)
	}
	if got := self["client.wait"]; len(got) != 1 || got[0] != 8*time.Millisecond {
		t.Errorf("wait self time = %v, want [8ms]", got)
	}
	var nilRec *recorder
	if nilRec.reserve() != 0 || nilRec.add(0, "x", "", 0, at(0), at(1)) != 0 {
		t.Error("a nil recorder recorded something")
	}

	path := t.TempDir() + "/trace.json"
	if err := r.writeFile(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []chromeEvent
	if err := json.Unmarshal(b, &events); err != nil {
		t.Fatalf("span file is not a Chrome-trace array: %v", err)
	}
	if len(events) != 3 || events[2].Name != "client.wait" || events[2].Dur != 8000 || events[2].Args["request"] != "w/0/0" {
		t.Errorf("events = %+v", events)
	}
}

func TestJSONEncodingRoundTripsFloat32(t *testing.T) {
	in := []float32{0, -0.3, 1e-7, 0.1, 3.4028235e38, 1.1754944e-38, -2.5}
	var req struct {
		Data []float32 `json:"data"`
	}
	if err := json.Unmarshal(encodeJSON(in), &req); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req.Data, in) {
		t.Errorf("JSON body decoded to %v, want %v", req.Data, in)
	}
}

// BENCHMARK.json is what the driver reads; the tables in metrics.go and
// run.go are what the program prints. They must name the same things.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	body, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []jsonMetric `json:"end_to_end"`
		PerLayer []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(body, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %d: %q (why: %d chars), program has %q", i, w.Name, len(w.Why), workloads[i].name)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program prints %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the program has %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || (bounded && (*g.Bound <= 0 || *g.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v", kind, g.Name, g.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	if spec.EndToEnd[0].Name != "setup_s" {
		t.Error("setup_s must lead the end-to-end metrics")
	}
}

// TestSmoke runs every workload for two quarter-second windows against the real
// binaries, built from the working tree, and checks that each prints every
// metric BENCHMARK.json names, with its unit, from correct masks only. It
// checks no timing, so it is safe on a loaded machine and under -short.
func TestSmoke(t *testing.T) {
	if raceEnabled {
		t.Skip("the child servers are not race-instrumented and the kernels run ≈10× slower under the detector")
	}
	// The benchmark builds ./cmd/... and writes .bench_build/ relative to the
	// root of the checkout.
	if err := os.Chdir(".."); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir("benchmark")

	quick := plan{warm: 50 * time.Millisecond, windows: 2, window: 250 * time.Millisecond,
		load: time.Millisecond, walkK: 3, walkLimit: time.Millisecond}
	small := func(wl *workload) *workload {
		c := *wl
		c.coldStarts = 1
		if c.volume {
			// The paper geometry costs seconds per volume; the path is the same.
			c.size, c.slices = 64, 4
		}
		return &c
	}
	expect := func(t *testing.T, res result, defs []metricDef) {
		t.Helper()
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("correct %v, attempted %d, failed %d", res.Correct, res.Attempted, res.Failed)
		}
		if len(res.Metrics) != len(defs) {
			t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := res.Metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("metric %s: printed %+v (present: %v), want unit %q", d.name, m, ok, d.unit)
			}
		}
	}
	// Seed 7 has no pinned digests, so the shrunken volume needs none.
	for _, wl := range workloads {
		t.Run(wl.name, func(t *testing.T) {
			res, err := run(small(wl), options{seed: 7, plan: &quick})
			if err != nil {
				t.Fatal(err)
			}
			expect(t, res, endToEnd)
			for _, d := range endToEnd {
				if res.Metrics[d.name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v, want > 0", d.name, res.Metrics[d.name].Value)
				}
			}
		})
	}
	t.Run("traced", func(t *testing.T) {
		res, err := run(small(workloadByName("slice_frontdoor")), options{seed: 7, traced: true, plan: &quick})
		if err != nil {
			t.Fatal(err)
		}
		expect(t, res, perLayer)
		if _, err := os.Stat(".bench_build/trace/slice_frontdoor-seed7.json"); err != nil {
			t.Errorf("no span file: %v", err)
		}
	})
	t.Run("corrupted reference fails the run", func(t *testing.T) {
		res, err := run(small(workloadByName("slice_kernel")), options{seed: 7, corrupt: true, plan: &quick})
		if err == nil && res.Correct {
			t.Error("a run against a corrupted reference mask passed: the correctness gate is dead")
		}
	})
}

func TestAtFullSpeedTakesTheSlowdownOut(t *testing.T) {
	w := &window{slow: 1.25, ops: 100, wall: time.Second, cpu: 2 * time.Second, latMS: []float64{10, 20}}
	closed := w.atFullSpeed(true, 1)
	if got := closed.opsPerS(); got != 125 {
		t.Errorf("closed loop: %v ops/s, want 100 × 1.25", got)
	}
	if got := closed.cpuMSPerOp(); got != 16 {
		t.Errorf("CPU per op = %v ms, want 20 ÷ 1.25", got)
	}
	if !reflect.DeepEqual(closed.latMS, []float64{8, 16}) {
		t.Errorf("latencies = %v, want each ÷ 1.25", closed.latMS)
	}
	open := w.atFullSpeed(false, 1)
	if got := open.opsPerS(); got != 100 {
		t.Errorf("open loop: %v ops/s, want the schedule's 100", got)
	}
	if open.cpuMSPerOp() != 16 || open.latMS[0] != 8 {
		t.Errorf("open loop durations not scaled: %v ms/op, %v", open.cpuMSPerOp(), open.latMS)
	}
	// With two fifths of a request computing, a core 1.25× slower lengthens
	// the request 1.1×; CPU time is CPU time whatever the share.
	part := w.atFullSpeed(true, 0.4)
	if got := part.latMS[0]; math.Abs(got-10/1.1) > 1e-9 {
		t.Errorf("latency at cpuShare 0.4 = %v, want 10 ÷ 1.1", got)
	}
	if got := part.cpuMSPerOp(); got != 16 {
		t.Errorf("CPU per op at cpuShare 0.4 = %v ms, want 20 ÷ 1.25", got)
	}
	if w.latMS[0] != 10 || w.wall != time.Second {
		t.Error("atFullSpeed changed the window it was given")
	}
}

func TestHostScoreCapsStrayReadings(t *testing.T) {
	ms := time.Millisecond
	h := host{phases: [][]time.Duration{
		{2 * ms, 2 * ms, 3 * ms, 3 * ms}, // the floor lives here
		{4 * ms, 4 * ms, 100 * ms, 4 * ms},
	}}
	if h.floor() != 2*ms {
		t.Fatalf("floor = %v, want 2ms", h.floor())
	}
	if score, slow := h.score(0); score != 2.5 || slow != 1.25 {
		t.Errorf("phase 0: score %v slow %v, want 2.5 ms and 1.25", score, slow)
	}
	// The 100 ms reading lost its core; it counts as 4 × floor = 8 ms.
	if score, slow := h.score(1); score != 5 || slow != 2.5 {
		t.Errorf("phase 1: score %v slow %v, want 5 ms and 2.5", score, slow)
	}
}
