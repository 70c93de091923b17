package main

import (
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

//go:embed golden/masks.json golden/sim.json
var goldenFS embed.FS

// goldenSeed is the seed whose reference masks are pinned under golden/.
const goldenSeed = 1

// openRate is slice_open's fixed arrival rate: ≈40% of the quiet capacity
// measured on the 2-core sandbox the benchmark was sized on.
const openRate = 40.0

// openDeadlineMS rides every slice_open request as X-Seneca-Deadline-Ms.
const openDeadlineMS = 500

// sloMS is the latency limit behind client.slo_met_share, per workload kind:
// a slice answered within 100 ms of its send or due time, a volume within 10 s.
const (
	sliceSLOMS  = 100.0
	volumeSLOMS = 10_000.0
)

// workload is one traffic mix against one server binary.
type workload struct {
	name       string
	binary     string
	model      string
	size       int
	args       []string // server flags besides -addr and -xmodel
	coldStarts int      // cold starts behind setup_s
	slices     int      // volume workload: slices in the phantom CT

	// cpuShare is the share of a request's wall time the server spends
	// computing; the rest is timers and waits, which a slow core does not
	// lengthen. Wall-clock metrics are scaled by it (stats.go: wallSlowdown;
	// README, "The sentinel", has the measurements behind the values).
	cpuShare float64

	open   bool // open loop at openRate; otherwise closed loop, one client per core
	rotate bool // rotate request encodings and admission tiers
	volume bool // whole-volume jobs from a single client
}

// The reasons each workload exists are in BENCHMARK.json and README.md.
var workloads = []*workload{
	{name: "slice_kernel", binary: "seneca-serve", model: "1M", size: 64, coldStarts: 9, cpuShare: 1},
	// Of slice_frontdoor's 3.4 ms p50, 2 ms is the batcher's timer and much of
	// the rest is system calls; 0.25 is what fifty same-code runs asked for.
	{name: "slice_frontdoor", binary: "seneca-cluster", model: "tiny", size: 16, coldStarts: 9, cpuShare: 0.25,
		args: []string{"-min-nodes", "2", "-max-nodes", "2"}, rotate: true},
	{name: "slice_open", binary: "seneca-serve", model: "1M", size: 64, coldStarts: 9, cpuShare: 1, open: true},
	{name: "volume_study", binary: "seneca-study", model: "1M", size: 256, coldStarts: 3, cpuShare: 1, volume: true, slices: 12},
}

func workloadByName(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

// errWrongOutput marks an error that is a wrong answer from the server, not
// the harness failing to run: main never retries it.
var errWrongOutput = errors.New("the server answered with a mask that differs from the oracle's")

type options struct {
	seed    int64
	seconds int
	traced  bool
	corrupt bool
	plan    *plan // nil: planFor(seconds, traced)
}

// plan is how a run spends its time. Its length never adapts to what the
// run observes, so two commits are always measured for the same duration.
type plan struct {
	warm      time.Duration // unrecorded load before the first window
	windows   int           // slice workloads: this many windows
	window    time.Duration // …of this length each
	load      time.Duration // volume workload: jobs (one per window) start until this has passed
	walkK     int           // layer walk: samples per timing
	walkLimit time.Duration // …and the time one timing may take before it stops early
}

func planFor(seconds int, traced bool) plan {
	total := time.Duration(seconds) * time.Second
	if !traced {
		return plan{warm: total / 10, windows: 16, window: total / 16, load: total}
	}
	// A traced run splits its time: two fifths walk the layers, the rest
	// repeats the load with every other window recording spans.
	load := total * 3 / 5
	return plan{warm: total / 20, windows: 8, window: load / 8, load: load,
		walkK: 50, walkLimit: total * 2 / 5 / 14}
}

// session is one run's state.
type session struct {
	wl   *workload
	opt  options
	plan plan
	dir  string
	bin  string
	hc   *http.Client

	model *model
	pool  *slicePool   // slice inputs (volume_study: a short pool for the walk, traced runs only)
	vol   *studyVolume // volume_study only

	walkSamples map[string]int // layer walk: samples behind each timing
	host        host           // the sentinel's readings, phase by phase
	setupPhase  int            // the phase that holds the cold starts

	attempted, failed, wrong int
	problems                 []string // correctness failures, printed and turned into correct=false
}

func (s *session) problem(format string, a ...any) {
	msg := fmt.Sprintf(format, a...)
	logf("benchmark: %s: WRONG: %s", s.wl.name, msg)
	s.problems = append(s.problems, msg)
}

// run performs one run of wl and returns what it prints.
func run(wl *workload, opt options) (res result, err error) {
	s := &session{wl: wl, opt: opt}
	if opt.plan != nil {
		s.plan = *opt.plan
	} else {
		s.plan = planFor(opt.seconds, opt.traced)
	}
	if s.dir, err = scratchDir(); err != nil {
		return res, err
	}
	defer os.RemoveAll(s.dir)
	// One transport for the run; closed when it ends so no connection
	// outlives the child it pointed at.
	tr := &http.Transport{MaxIdleConnsPerHost: openConns, DisableCompression: true}
	defer tr.CloseIdleConnections()
	s.hc = &http.Client{Transport: tr, Timeout: jobLimit}

	var buildTime time.Duration
	if s.bin, buildTime, err = buildBinary(wl.binary); err != nil {
		return res, err
	}
	if err := s.prepareInputs(); err != nil {
		return res, err
	}

	metrics := map[string]metric{}
	var rec *recorder
	if opt.traced {
		rec = newRecorder()
		wk := newWalk(wl.name, s.plan.walkK, s.plan.walkLimit, rec)
		if err := s.walkLayers(wk); err != nil {
			return res, err
		}
		wk.set("bench.build_s", buildTime.Seconds())
		for name, m := range wk.vals {
			metrics[name] = m
		}
		s.walkSamples = wk.samples
	}

	c, setup, err := s.coldStarts()
	if err != nil {
		return res, err
	}
	defer c.kill() // a no-op once stop has seen the server exit

	var before scraped
	r := &runner{workload: wl.name, child: c, host: &s.host, rec: rec}
	ws, vt, err := s.load(r, func() (err error) {
		before, err = s.scrape(c)
		return err
	})
	if err != nil {
		return res, err
	}
	after, err := s.scrape(c)
	if err != nil {
		return res, err
	}
	s.checkAccounting(after)
	rss, err := c.peakRSSMiB()
	if err != nil {
		return res, err
	}
	if err := c.stop(); err != nil {
		return res, err
	}

	for _, w := range ws {
		s.attempted += w.sent
		s.failed += w.failed
		s.wrong += w.wrong
	}
	if s.wrong > 0 {
		s.problem("%d responses differed from the oracle's mask", s.wrong)
	}

	if opt.traced {
		s.layerMetrics(metrics, ws, vt, rec, before, after)
		path := filepath.Join(buildDir, "trace", fmt.Sprintf("%s-seed%d.json", wl.name, opt.seed))
		if err := rec.writeFile(path); err != nil {
			return res, err
		}
		logf("benchmark: %s: spans written to %s", wl.name, path)
		for _, d := range perLayer {
			if _, ok := metrics[d.name]; !ok {
				metrics[d.name] = metric{Value: 0, Unit: d.unit}
			}
		}
	} else {
		s.endToEndMetrics(metrics, ws, setup, rss)
	}
	s.report(metrics, ws)
	return result{Correct: len(s.problems) == 0, Attempted: s.attempted, Failed: s.failed, Metrics: metrics}, nil
}

// rng returns the workload's random stream for one purpose, so adding a
// draw to one stream never shifts another.
func (s *session) rng(purpose string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(s.wl.name + "/" + purpose))
	return rand.New(rand.NewSource(s.opt.seed ^ int64(h.Sum64()>>1)))
}

// prepareInputs compiles the model, writes the xmodel the child will load,
// generates the seeded inputs, runs the oracle, and checks seed 1's masks
// against the pinned digests.
func (s *session) prepareInputs() error {
	var err error
	if s.model, err = buildModel(s.wl.model, s.wl.size); err != nil {
		return err
	}
	if err := s.model.writeFile(filepath.Join(s.dir, "model.xmodel")); err != nil {
		return err
	}
	var digest string
	if s.wl.volume {
		if s.vol, err = newStudyVolume(s.model, s.opt.seed, s.wl.slices); err != nil {
			return err
		}
		sum := sha256.Sum256(s.vol.mask)
		digest = hex.EncodeToString(sum[:])
		if s.opt.traced {
			if s.pool, err = newSlicePool(s.model, s.rng("inputs"), 2); err != nil {
				return err
			}
		}
	} else {
		if s.pool, err = newSlicePool(s.model, s.rng("inputs"), poolSize); err != nil {
			return err
		}
		digest = hashMasks(s.pool.masks)
	}
	if s.opt.seed == goldenSeed {
		var pinned map[string]string
		if err := readGolden("golden/masks.json", &pinned); err != nil {
			return err
		}
		if pinned[s.wl.name] != digest {
			s.problem("reference masks of seed %d hash to %s, golden/masks.json pins %s",
				goldenSeed, digest, pinned[s.wl.name])
		}
	}
	if s.opt.corrupt {
		if s.wl.volume {
			s.vol.mask[len(s.vol.mask)-1] ^= 1
		} else {
			for _, m := range s.pool.masks {
				m[0] ^= 1
			}
		}
	}
	return nil
}

func readGolden(name string, v any) error {
	b, err := goldenFS.ReadFile(name)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// walkLayers runs every module's probe at the workload's own geometry.
func (s *session) walkLayers(wk *walk) error {
	m := s.model
	niftiBody := s.pool.bodies[0][encNIfTI]
	if s.wl.volume {
		niftiBody = s.vol.ct
	}
	paper, err := paperBodies(s.rng("decode256"))
	if err != nil {
		return err
	}
	var sim simValues
	type probe struct {
		module string
		fn     func() error
	}
	probes := []probe{
		{"xmodel", func() error { return probeXmodel(wk, m, s.dir) }},
		{"quant", func() error { return probeQuant(wk, m, s.pool.inputs) }},
		{"backend", func() error { return probeBackend(wk, m, s.pool.inputs) }},
		{"vart", func() (err error) { sim, err = probeVART(wk, m); return err }},
		{"nifti", func() error { return probeNIfTI(wk, niftiBody) }},
		{"serve.decode", func() error {
			if err := probeDecode(wk, "serve.decode", m.size, s.pool.bodies[0], true); err != nil {
				return err
			}
			return probeDecode(wk, "serve.decode256", 256, paper, false)
		}},
		{"serve", func() error { return probeServe(wk, m, s.pool) }},
	}
	// The router and the study tier are walked only where they serve: their
	// numbers are predicted to move nothing on the other workloads.
	if s.wl.binary == "seneca-cluster" {
		probes = append(probes, probe{"cluster", func() error { return probeCluster(wk, m, s.pool) }})
	}
	if s.wl.volume {
		probes = append(probes, probe{"study", func() error {
			return probeStudy(wk, s.vol.labels, s.vol.nx, s.vol.ny, s.vol.nz, m.numClasses(), s.dir)
		}})
	}
	for _, p := range probes {
		if err := wk.probe(p.module, p.fn); err != nil {
			return err
		}
	}

	// The simulated-board figures are the paper's own metrics: they depend
	// on the device model alone and must repeat exactly.
	var pinned map[string]simValues
	if err := readGolden("golden/sim.json", &pinned); err != nil {
		return err
	}
	key := fmt.Sprintf("%s@%d", s.wl.model, s.wl.size)
	if pinned[key] != sim {
		s.problem("simulated figures of %s are %+v, golden/sim.json pins %+v", key, sim, pinned[key])
	}
	return nil
}

// childArgs are the server's flags for cold start i.
func (s *session) childArgs(i int) []string {
	args := append([]string{"-xmodel", filepath.Join(s.dir, "model.xmodel"), "-log-level", "warn"}, s.wl.args...)
	if s.wl.volume {
		args = append(args, "-store", filepath.Join(s.dir, fmt.Sprintf("store-%d", i)))
	}
	return args
}

// coldStarts starts the server wl.coldStarts times (once in a traced run,
// which prints no setup_s) and leaves the last one running. It returns that
// child and the median set-up time. The sentinel samples alongside, so the
// set-up time can be read against the speed the host ran at meanwhile.
func (s *session) coldStarts() (*child, time.Duration, error) {
	n := s.wl.coldStarts
	if s.opt.traced {
		n = 1
	}
	var last *child
	var times []float64
	var err error
	s.setupPhase, err = s.host.during(func() error {
		for i := range n {
			c, took, err := s.coldStart(i)
			if err != nil {
				return err
			}
			times = append(times, float64(took))
			if i == n-1 {
				last = c
				return nil
			}
			if err := c.stop(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	if !s.wl.volume {
		s.checkEncodings(last)
	}
	return last, time.Duration(median(times)), nil
}

// coldStart starts the server once and times it from exec to the first
// correct mask.
func (s *session) coldStart(i int) (*child, time.Duration, error) {
	c, err := startChild(s.bin, s.childArgs(i), filepath.Join(s.dir, fmt.Sprintf("server-%d.log", i)))
	if err != nil {
		return nil, 0, err
	}
	if err := c.waitHealthy(s.hc, 30*time.Second); err != nil {
		c.kill()
		return nil, 0, err
	}
	o := s.firstOp(c)
	s.attempted++
	if o.failed {
		s.failed++
		tail := c.logTail()
		c.kill()
		if o.wrong {
			return nil, 0, fmt.Errorf("%w: the first request after a cold start\n%s", errWrongOutput, tail)
		}
		return nil, 0, fmt.Errorf("first request after a cold start failed\n%s", tail)
	}
	return c, o.done.Sub(c.started), nil
}

// firstOp is the first request a freshly started server answers.
func (s *session) firstOp(c *child) outcome {
	if s.wl.volume {
		return (&volumeTarget{base: c.base, hc: s.hc, vol: s.vol}).job(traceCtx{})
	}
	return (&sliceTarget{base: c.base, hc: s.hc, pool: s.pool}).segment(sliceReq{}, traceCtx{})
}

// checkEncodings posts one input in all three encodings; each must come
// back as the oracle's mask for it.
func (s *session) checkEncodings(c *child) {
	t := &sliceTarget{base: c.base, hc: s.hc, pool: s.pool}
	for enc := range numEncodings {
		o := t.segment(sliceReq{input: 1, enc: enc}, traceCtx{})
		s.attempted++
		if o.failed {
			s.failed++
			s.problem("input 1 sent as %s: failed=%v wrong=%v", contentTypes[enc], o.failed, o.wrong)
		}
	}
}

// load warms the server up, calls warmed (the "before" scrape), then runs
// the workload's windows and returns them (and, for volume_study, the target
// that timed the uploads and downloads).
func (s *session) load(r *runner, warmed func() error) ([]*window, *volumeTarget, error) {
	p := s.plan
	if s.wl.volume {
		vt := &volumeTarget{base: r.child.base, hc: s.hc, vol: s.vol}
		op := func(_, _ int, tc traceCtx) outcome { return vt.job(tc) }
		// The cold start's own job was the warm-up. One job is one window;
		// jobs start until the load time has passed.
		if err := warmed(); err != nil {
			return nil, nil, err
		}
		begin := time.Now()
		ws, err := r.windows(
			func(i int) bool { return i < 2 || time.Since(begin) < p.load },
			func(w *window) error { return r.closedWindow(w, 1, 0, op) })
		return ws, vt, err
	}

	t := &sliceTarget{base: r.child.base, hc: s.hc, pool: s.pool}
	clients := runtime.NumCPU()
	offset := s.rng("rotation").Intn(poolSize * numEncodings * 2)
	tiers := [2]string{"interactive", "batch"}
	closed := func(client, seq int, tc traceCtx) outcome {
		k := offset + client + seq*clients
		rq := sliceReq{input: k % poolSize}
		if s.wl.rotate {
			rq.enc, rq.tier = k%numEncodings, tiers[k/numEncodings%2]
		}
		return t.segment(rq, tc)
	}
	// The warm-up is a window nobody keeps.
	if err := r.closedWindow(&window{index: -1}, clients, p.warm, closed); err != nil {
		return nil, nil, err
	}
	if err := warmed(); err != nil {
		return nil, nil, err
	}
	more := func(i int) bool { return i < p.windows }
	if !s.wl.open {
		ws, err := r.windows(more, func(w *window) error { return r.closedWindow(w, clients, p.window, closed) })
		return ws, nil, err
	}
	schedule := poissonSchedule(s.rng("arrivals").Int63(), p.windows, p.window, openRate, poolSize)
	send := func(a arrival, tc traceCtx) outcome {
		return t.segment(sliceReq{input: a.input, deadline: openDeadlineMS}, tc)
	}
	ws, err := r.windows(more, func(w *window) error { return r.openWindow(w, schedule[w.index], send) })
	return ws, nil, err
}

// scraped is one reading of the child's /statz and /metrics.
type scraped struct {
	serve   *serveStatz   // seneca-serve, seneca-study
	cluster *clusterStatz // seneca-cluster
	prom    []promSample
}

func (s *session) scrape(c *child) (scraped, error) {
	var sc scraped
	body, err := c.fetch(s.hc, "/statz")
	if err != nil {
		return sc, err
	}
	if s.wl.binary == "seneca-cluster" {
		st, err := parseStatz[clusterStatz](body, "interactive")
		if err != nil {
			return sc, err
		}
		sc.cluster = &st
	} else {
		st, err := parseStatz[serveStatz](body, "accepted")
		if err != nil {
			return sc, err
		}
		sc.serve = &st
	}
	text, err := c.fetch(s.hc, "/metrics")
	if err != nil {
		return sc, err
	}
	sc.prom, err = parseProm(string(text))
	return sc, err
}

// checkAccounting holds the server to its own books once the load has
// drained: every request it admitted must have ended one way or another.
func (s *session) checkAccounting(after scraped) {
	if st := after.serve; st != nil {
		if st.Accepted != st.Completed+st.Expired+st.Failed {
			s.problem("serve accounting: accepted %d ≠ completed %d + expired %d + failed %d",
				st.Accepted, st.Completed, st.Expired, st.Failed)
		}
	}
	if st := after.cluster; st != nil {
		for name, t := range map[string]clusterTier{"interactive": st.Interactive, "batch": st.Batch} {
			if t.Submitted != t.Completed+t.Shed {
				s.problem("cluster accounting, %s tier: submitted %d ≠ completed %d + shed %d",
					name, t.Submitted, t.Completed, t.Shed)
			}
		}
	}
}

// endToEndMetrics fills in what an untraced run prints. Every timing is
// taken over the quietest half of the windows by sentinel score, with the
// host's slowdown taken out of each (README, "The sentinel"); the raw
// medians are printed beside them.
func (s *session) endToEndMetrics(out map[string]metric, ws []*window, setup time.Duration, rssMiB float64) {
	summarize := func(ws []*window) (tput, p50, cpu float64, samples int) {
		var tputs, cpus []float64
		for _, w := range quietestHalf(ws) {
			tputs = append(tputs, w.opsPerS())
			cpus = append(cpus, w.cpuMSPerOp())
		}
		// The median wants 20 samples to have ten beyond it.
		lat := poolLatencies(ws, minBeyond*2)
		return median(tputs), percentile(lat, 0.50), median(cpus), len(lat)
	}
	scaled := make([]*window, len(ws))
	for i, w := range ws {
		scaled[i] = w.atFullSpeed(!s.wl.open, s.wl.cpuShare)
	}
	_, setupSlow := s.host.score(s.setupPhase)
	setupSlow = wallSlowdown(setupSlow, s.wl.cpuShare)
	tput, p50, cpu, samples := summarize(scaled)
	out["setup_s"] = metric{setup.Seconds() / setupSlow, "s"}
	out["ops_per_s"] = metric{tput, "1/s"}
	out["latency_p50_ms"] = metric{p50, "ms"}
	out["server_cpu_ms_per_op"] = metric{cpu, "ms"}
	out["peak_rss_mb"] = metric{rssMiB, "MiB"}

	rawTput, rawP50, rawCPU, _ := summarize(ws)
	logf("benchmark: %s: as measured, before scaling: setup_s %.4f (slowdown %.2f)  ops_per_s %.2f  latency_p50_ms %.3f  server_cpu_ms_per_op %.3f; p50 over %d samples",
		s.wl.name, setup.Seconds(), setupSlow, rawTput, rawP50, rawCPU, samples)
}

// layerMetrics fills in what a traced run prints beyond the walk.
func (s *session) layerMetrics(out map[string]metric, ws []*window, vt *volumeTarget, rec *recorder, before, after scraped) {
	set := func(name string, v float64) { out[name] = metric{v, unitOf(name)} }
	// delta is how far a /metrics series moved over the load.
	delta := func(name, label, value string) float64 {
		return promValue(after.prom, name, label, value) - promValue(before.prom, name, label, value)
	}

	// Client side, over the quietest half of the windows.
	// p99 wants 1000 samples to have ten beyond it; the pool grows past the
	// quietest half until it holds them, or the run is exhausted.
	lat := poolLatencies(ws, minBeyond*100)
	set("client.latency_p95_ms", percentile(lat, 0.95))
	set("client.latency_p99_ms", percentile(lat, 0.99))
	logf("benchmark: %s: client latency percentiles over %d samples (ten beyond p95: %v, beyond p99: %v)",
		s.wl.name, len(lat), supported(len(lat), 0.95), supported(len(lat), 0.99))
	slo := sliceSLOMS
	if s.wl.volume {
		slo = volumeSLOMS
	}
	var met, offered int
	var lag []float64
	for _, w := range quietestHalf(ws) {
		offered += w.sent
		for _, l := range w.latMS {
			if l <= slo {
				met++
			}
		}
		lag = append(lag, w.lagMS...)
	}
	if offered > 0 {
		set("client.slo_met_share", float64(met)/float64(offered))
	}
	sort.Float64s(lag)
	lagP99 := percentile(lag, 0.99)
	set("bench.generator_lag_p99_ms", lagP99)
	if lagP99 > 10 {
		// Said loudly but not a failure: the masks were right, and on a shared
		// host a stall of the generator is the host's doing, not the program's.
		logf("benchmark: %s: WARNING: open-loop generator ran %.1f ms late at p99 (limit 10 ms): this run's latencies measure the generator", s.wl.name, lagP99)
	}

	self := rec.selfTimes()
	med := func(name string) time.Duration {
		var v []float64
		for _, d := range self[name] {
			v = append(v, float64(d))
		}
		return time.Duration(median(v))
	}
	set("client.send_us", float64(med("client.send"))/1e3)
	set("client.wait_ms", float64(med("client.wait"))/1e6)
	set("client.read_us", float64(med("client.read"))/1e3)
	set("client.verify_us", float64(med("client.verify"))/1e3)

	// The benchmark's own health.
	var scores, traced, untraced []float64
	lowest := ws[0].score
	for _, w := range ws {
		lowest = min(lowest, w.score)
		if w.traced {
			traced = append(traced, w.opsPerS())
		} else {
			untraced = append(untraced, w.opsPerS())
		}
	}
	for _, w := range quietestHalf(ws) {
		scores = append(scores, w.score)
	}
	set("bench.sentinel_ms", median(scores))
	set("bench.sentinel_ratio", median(scores)/lowest)
	if u := median(untraced); u > 0 {
		set("bench.trace_overhead_pct", (u-median(traced))/u*100)
	}

	// Server side: counter deltas around the load.
	if b, a := before.serve, after.serve; a != nil {
		set("serve.accepted", float64(a.Accepted-b.Accepted))
		set("serve.completed", float64(a.Completed-b.Completed))
		set("serve.rejected", float64(a.Rejected-b.Rejected))
		set("serve.expired", float64(a.Expired-b.Expired))
		set("serve.failed", float64(a.Failed-b.Failed))
		set("serve.redispatched", float64(a.Redispatches-b.Redispatches))
		set("serve.batches", float64(a.Batches-b.Batches))
		if batches := delta("seneca_serve_batches_total", "", ""); batches > 0 {
			set("serve.mean_batch", delta("seneca_serve_frames_total", "", "")/batches)
		}
		set("serve.server_p50_ms", a.P50LatencyMS)
		set("serve.server_p99_ms", a.P99LatencyMS)
		if !s.wl.volume {
			set("serve.outside_p50_ms", percentile(lat, 0.50)-a.P50LatencyMS)
		}
	}
	if b, a := before.cluster, after.cluster; a != nil {
		set("cluster.submitted", float64(a.Interactive.Submitted+a.Batch.Submitted-b.Interactive.Submitted-b.Batch.Submitted))
		set("cluster.completed", float64(a.Interactive.Completed+a.Batch.Completed-b.Interactive.Completed-b.Batch.Completed))
		set("cluster.shed", float64(a.Interactive.Shed+a.Batch.Shed-b.Interactive.Shed-b.Batch.Shed))
		set("cluster.redispatches", float64(a.Redispatches-b.Redispatches))
		set("cluster.hedges", float64(a.Hedges-b.Hedges))
		var total, most float64
		for i, n := range a.Nodes {
			d := float64(n.Completed)
			if i < len(b.Nodes) {
				d -= float64(b.Nodes[i].Completed)
			}
			total += d
			most = max(most, d)
		}
		if total > 0 {
			set("cluster.node_share_max", most/total)
			set("serve.completed", total)
		}
		set("serve.server_p50_ms", a.Interactive.P50LatencyMS)
		set("serve.server_p99_ms", a.Interactive.P99LatencyMS)
		set("serve.outside_p50_ms", percentile(lat, 0.50)-a.Interactive.P50LatencyMS)
	}
	if s.wl.volume {
		for _, stage := range []string{"ingest", "preprocess", "infer", "reassemble", "postprocess", "report"} {
			if n := delta("seneca_study_stage_duration_seconds_count", "stage", stage); n > 0 {
				set("study.stage."+stage+"_ms", delta("seneca_study_stage_duration_seconds_sum", "stage", stage)/n*1e3)
			}
		}
		set("study.upload_ms", median(vt.uploadMS))
		set("study.download_ms", median(vt.downloadMS))
	}
}

// report prints the run for a reader: each window with its sentinel score
// and whether it was chosen, then each metric with its unit and, for a walk
// timing, its sample count.
func (s *session) report(metrics map[string]metric, ws []*window) {
	chosen := map[int]bool{}
	for _, w := range quietestHalf(ws) {
		chosen[w.index] = true
	}
	logf("  sentinel floor %.4f ms; windows as measured:", float64(s.host.floor())/float64(time.Millisecond))
	for _, w := range ws {
		mark := " "
		if chosen[w.index] {
			mark = "*"
		}
		lat := append([]float64(nil), w.latMS...)
		sort.Float64s(lat)
		logf("  window %2d %s sentinel %6.3f ms (slowdown %.2f)  %8.2f ops/s  %7.3f cpu-ms/op  p50 %8.3f ms  p95 %8.3f ms  sent %d failed %d traced %v",
			w.index, mark, w.score, w.slow, w.opsPerS(), w.cpuMSPerOp(), percentile(lat, 0.5), percentile(lat, 0.95), w.sent, w.failed, w.traced)
	}
	defs := endToEnd
	if s.opt.traced {
		defs = perLayer
	}
	for _, d := range defs {
		n := ""
		if c := s.walkSamples[d.name]; c > 0 {
			n = fmt.Sprintf("  n=%d", c)
		}
		logf("  %-34s %14.4f %s%s", d.name, metrics[d.name].Value, metrics[d.name].Unit, n)
	}
	logf("benchmark: %s seed %d traced %v: attempted %d failed %d correct %v",
		s.wl.name, s.opt.seed, s.opt.traced, s.attempted, s.failed, len(s.problems) == 0)
}
