package vart

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"seneca/internal/dpu"
	"seneca/internal/quant"
	"seneca/internal/tensor"
	"seneca/internal/unet"
	"seneca/internal/xmodel"
)

func testRunner(t *testing.T, threads int) (*Runner, []*tensor.Tensor) {
	t.Helper()
	cfg := unet.Config{Name: "tiny", Depth: 2, BaseFilters: 8, InChannels: 1, NumClasses: 6, DropoutRate: 0, Seed: 2}
	m := unet.New(cfg)
	g := m.Export(32, 32)
	q, err := quant.QuantizeShapeOnly(g)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := xmodel.Compile(q, cfg.Name)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	imgs := make([]*tensor.Tensor, 12)
	for i := range imgs {
		img := tensor.New(1, 32, 32)
		for j := range img.Data {
			img.Data[j] = float32(rng.NormFloat64() * 0.3)
		}
		imgs[i] = img
	}
	return New(dpu.New(dpu.ZCU104B4096()), prog, threads), imgs
}

func TestThroughputScalesThenSaturates(t *testing.T) {
	r, _ := testRunner(t, 1)
	// Match the paper-scale host/DPU time ratio: at 256×256 the per-frame
	// DPU latency (≈5–20 ms) is a few times the ARM host overhead, which is
	// what makes throughput saturate between 2 and 4 threads. The tiny test
	// model is far faster than the host, so scale the overhead to keep the
	// ratio.
	r.HostOverhead = r.Device.TimeFrame(r.Program).Latency
	res, err := r.SweepThreads([]int{1, 2, 4, 8}, 500, 0)
	if err != nil {
		t.Fatal(err)
	}
	fps := make([]float64, len(res))
	for i, rr := range res {
		fps[i] = rr.FPS()
	}
	// The paper's Section IV-B behaviour: gains up to 4 threads…
	if !(fps[1] > fps[0]*1.5 && fps[2] > fps[1]*1.1) {
		t.Errorf("throughput does not scale with threads: %v", fps)
	}
	// …then saturation (dual-core limit) with no FPS gain at 8 threads.
	if fps[3] > fps[2]*1.02 {
		t.Errorf("8 threads should not beat 4: %v", fps)
	}
	// But 8 threads must cost more power (more host threads).
	if res[3].Watts() <= res[2].Watts() {
		t.Errorf("8-thread power %v not above 4-thread %v", res[3].Watts(), res[2].Watts())
	}
	// Hence energy efficiency peaks at 4 threads.
	if res[3].EnergyEfficiency() >= res[2].EnergyEfficiency() {
		t.Errorf("EE(8t)=%v should fall below EE(4t)=%v", res[3].EnergyEfficiency(), res[2].EnergyEfficiency())
	}
}

func TestDualCoreCap(t *testing.T) {
	r, _ := testRunner(t, 16)
	res, err := r.SimulateThroughput(500, 0)
	if err != nil {
		t.Fatal(err)
	}
	cap := 2 / res.FrameLatency.Seconds()
	if res.FPS() > cap*1.001 {
		t.Fatalf("throughput %v exceeds dual-core bound %v", res.FPS(), cap)
	}
}

func TestSimulationDeterministicWithZeroSeed(t *testing.T) {
	r, _ := testRunner(t, 4)
	a, err := r.SimulateThroughput(100, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.SimulateThroughput(100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if a.FPS() != b.FPS() || a.Joules != b.Joules {
		t.Fatal("seed-0 simulation not deterministic")
	}
	c, err := r.SimulateThroughput(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := r.SimulateThroughput(100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.FPS() == d.FPS() {
		t.Fatal("different seeds should jitter the run")
	}
}

func TestHostBoundSingleThread(t *testing.T) {
	// With one thread, throughput ≈ 1/(latency+host): the DPU idles while
	// the host prepares the next job.
	r, _ := testRunner(t, 1)
	res, err := r.SimulateThroughput(300, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / (res.FrameLatency + r.HostOverhead).Seconds()
	got := res.FPS()
	if rel := (got - want) / want; rel < -0.05 || rel > 0.05 {
		t.Fatalf("1-thread FPS %v, want ≈%v", got, want)
	}
	if res.CoreBusyFrac > 0.6 {
		t.Fatalf("single thread should leave cores mostly idle, busy=%v", res.CoreBusyFrac)
	}
}

func TestTraceSchedule(t *testing.T) {
	r, _ := testRunner(t, 2)
	tr, err := r.Trace(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 30 { // prepare + infer + collect per frame
		t.Fatalf("%d events for 10 frames", len(tr.Events))
	}
	// Trace result must equal the plain simulation (same event loop).
	plain, err := r.SimulateThroughput(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Result.FPS() != plain.FPS() {
		t.Fatalf("trace result diverges: %v vs %v", tr.Result.FPS(), plain.FPS())
	}
	// DPU events must never overlap on the same core.
	type span struct{ ts, end int64 }
	byCore := map[int][]span{}
	for _, ev := range tr.Events {
		if ev.Cat != "dpu" {
			continue
		}
		if ev.PID != 2 {
			t.Fatalf("dpu event with pid %d", ev.PID)
		}
		byCore[ev.TID] = append(byCore[ev.TID], span{ev.TS, ev.TS + ev.Dur})
	}
	for core, spans := range byCore {
		for i := 1; i < len(spans); i++ {
			if spans[i].ts < spans[i-1].end {
				t.Fatalf("core %d: overlapping executions %v after %v", core, spans[i], spans[i-1])
			}
		}
	}
	// JSON round-trips.
	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatal(err)
	}
	var decoded []TraceEvent
	if err := json.Unmarshal([]byte(sb.String()), &decoded); err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(tr.Events) {
		t.Fatal("trace JSON round trip lost events")
	}
}

func TestZeroThreadsReturnsError(t *testing.T) {
	r, _ := testRunner(t, 0)
	if _, err := r.SimulateThroughput(10, 0); !errors.Is(err, ErrNoThreads) {
		t.Fatalf("SimulateThroughput error = %v, want ErrNoThreads", err)
	}
	if _, err := r.SweepThreads([]int{0}, 10, 0); !errors.Is(err, ErrNoThreads) {
		t.Fatalf("SweepThreads error = %v, want ErrNoThreads", err)
	}
	if _, err := r.Trace(10, 0); !errors.Is(err, ErrNoThreads) {
		t.Fatalf("Trace error = %v, want ErrNoThreads", err)
	}
}

// TestSweepThreadsDoesNotMutateRunner: a sweep on a Runner that serving
// workers share keeps pricing their runs unchanged while it is in progress
// (race-free under -race) and leaves the receiver untouched.
func TestSweepThreadsDoesNotMutateRunner(t *testing.T) {
	r, _ := testRunner(t, 4)
	want, err := r.SimulateThroughput(50, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			if got, err := r.SimulateThroughput(50, 0); err != nil || got != want {
				t.Errorf("pricing during a sweep = %+v, %v; want %+v", got, err, want)
			}
		}()
		go func() {
			defer wg.Done()
			if res, err := r.SweepThreads([]int{1, 2, 8}, 50, 0); err != nil || len(res) != 3 {
				t.Errorf("sweep = %d results, %v", len(res), err)
			}
		}()
	}
	wg.Wait()
	if r.Threads != 4 {
		t.Fatalf("SweepThreads mutated Threads to %d", r.Threads)
	}
}

// TestConcurrentExecuteMasksIdentical hammers the program graph's pooled
// scratch arenas directly: many goroutines run different images through
// Program.Run simultaneously and every mask must equal the sequential
// reference. A cross-contaminated arena (two frames sharing activation
// buffers) would corrupt the masks.
func TestConcurrentExecuteMasksIdentical(t *testing.T) {
	r, imgs := testRunner(t, 8)
	want := make([][]uint8, len(imgs))
	for i, img := range imgs {
		m, err := r.Program.Run(img)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = m
	}
	var wg sync.WaitGroup
	for rep := 0; rep < 4; rep++ {
		for i := range imgs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got, err := r.Program.Run(imgs[i])
				if err != nil {
					t.Error(err)
					return
				}
				for j := range want[i] {
					if got[j] != want[i][j] {
						t.Errorf("concurrent mask %d differs at pixel %d", i, j)
						return
					}
				}
			}(i)
		}
	}
	wg.Wait()
}

// TestSimulateThroughputReportsUnchanged pins SimulateThroughput's report —
// Duration, the bits of Joules, FrameLatency, CoreBusyFrac and Utilization —
// for every Table II configuration at 64×64, threads 1, 2, 4 and 8 and seeds
// 0, 1 and 2, to the values the runtime model has always produced: timing the
// frame once per Runner instead of once per call must not move a bit.
func TestSimulateThroughputReportsUnchanged(t *testing.T) {
	type pin struct {
		model                 string
		threads               int
		seed                  int64
		duration              time.Duration
		joules                uint64
		frame                 time.Duration
		busyFrac, utilization uint64
	}
	pins := []pin{
		{"1M", 1, 0, 168467000, 0x400ad469651e67cb, 1169340, 0x3fc6361e570d0c76, 0x3fb263cded523740},
		{"1M", 1, 1, 168191399, 0x400ac97d6e2b30fa, 1169340, 0x3fc63f6f959bda61, 0x3fb263cded523740},
		{"1M", 1, 2, 168272614, 0x400accb55ab43954, 1169340, 0x3fc63cafe1804707, 0x3fb263cded523740},
		{"1M", 2, 0, 84233500, 0x3ffc0d6f7c8f9d98, 1169340, 0x3fd6361e570d0c76, 0x3fb263cded523740},
		{"1M", 2, 1, 84097393, 0x3ffc0273ee73c26e, 1169340, 0x3fd63f523936dd63, 0x3fb263cded523740},
		{"1M", 2, 2, 84142134, 0x3ffc061024d87ff2, 1169340, 0x3fd63c4af54b99ca, 0x3fb263cded523740},
		{"1M", 4, 0, 43801420, 0x3fef99050df5a5cd, 1169340, 0x3fe55b6bf13dc70f, 0x3fb263cded523740},
		{"1M", 4, 1, 43762383, 0x3fef927efa3b57e0, 1169340, 0x3fe5604c7833d7e6, 0x3fb263cded523740},
		{"1M", 4, 2, 43724177, 0x3fef8c1c73c12759, 1169340, 0x3fe5651493d0ee2c, 0x3fb263cded523740},
		{"1M", 8, 0, 31433500, 0x3fe8eea3161a1dba, 1169340, 0x3fedc2a6609d47c5, 0x3fb263cded523740},
		{"1M", 8, 1, 31451893, 0x3fe8f1ebf9d5f2d0, 1169340, 0x3fedbe31cd7887d9, 0x3fb263cded523740},
		{"1M", 8, 2, 31427096, 0x3fe8ed7e4f0ea6a5, 1169340, 0x3fedc433cfba135b, 0x3fb263cded523740},
		{"2M", 1, 0, 205680800, 0x4010504a2c29f067, 1913616, 0x3fcdc5af4f1cdd67, 0x3f9f6680504f466e},
		{"2M", 1, 1, 205405199, 0x40104ad430b054ff, 1913616, 0x3fcdcfe940b4dd1b, 0x3f9f6680504f466e},
		{"2M", 1, 2, 205486414, 0x40104c7026f4d92d, 1913616, 0x3fcdcce50f0cd404, 0x3f9f6680504f466e},
		{"2M", 2, 0, 102840400, 0x4000feda9478544b, 1913616, 0x3fddc5af4f1cdd67, 0x3f9f6680504f466e},
		{"2M", 2, 1, 102704293, 0x4000f95ccd6a66b6, 1913616, 0x3fddcfc909718ec7, 0x3f9f6680504f466e},
		{"2M", 2, 2, 102749034, 0x4000fb2ae89cc578, 1913616, 0x3fddcc764d68eb01, 0x3f9f6680504f466e},
		{"2M", 4, 0, 53477008, 0x3ff307d879070a64, 1913616, 0x3feca08b072599d0, 0x3f9f6680504f466e},
		{"2M", 4, 1, 53437971, 0x3ff304956f29e36d, 1913616, 0x3feca5e58b39022f, 0x3f9f6680504f466e},
		{"2M", 4, 2, 53399765, 0x3ff301642beccb2a, 1913616, 0x3fecab24d33ddea8, 0x3f9f6680504f466e},
		{"2M", 8, 0, 50040400, 0x3ff307a3c9f8a087, 1913616, 0x3fee97d7cf4c050d, 0x3f9f6680504f466e},
		{"2M", 8, 1, 50058793, 0x3ff309483bd68b12, 1913616, 0x3fee94f7226890f8, 0x3f9f6680504f466e},
		{"2M", 8, 2, 50033996, 0x3ff307116672e4fc, 1913616, 0x3fee98d86df3c092, 0x3f9f6680504f466e},
		{"4M", 1, 0, 242374150, 0x40135dcd836595a7, 2647483, 0x3fd17a1c9cd5ad85, 0x3fa3f53db2565a37},
		{"4M", 1, 1, 242098549, 0x4013585787ebfa3f, 2647483, 0x3fd17f347c673039, 0x3fa3f53db2565a37},
		{"4M", 1, 2, 242179764, 0x401359f37e307e6c, 2647483, 0x3fd17db3f2aa761d, 0x3fa3f53db2565a37},
		{"4M", 2, 0, 121187075, 0x40044ff95f4616a5, 2647483, 0x3fe17a1c9cd5ad85, 0x3fa3f53db2565a37},
		{"4M", 2, 1, 121050968, 0x40044a7b98382910, 2647483, 0x3fe17f2471a84ce6, 0x3fa3f53db2565a37},
		{"4M", 2, 2, 121095709, 0x40044c49b36a87d3, 2647483, 0x3fe17d7cca1ed81e, 0x3fa3f53db2565a37},
		{"4M", 4, 0, 68387075, 0x3ff8bf8843991cf3, 2647483, 0x3feef876fe8eee54, 0x3fa3f53db2565a37},
		{"4M", 4, 1, 68405468, 0x3ff8c111b532c269, 2647483, 0x3feef6553f7faa05, 0x3fa3f53db2565a37},
		{"4M", 4, 2, 68380671, 0x3ff8beff46c2b89c, 2647483, 0x3feef935143a2b10, 0x3fa3f53db2565a37},
		{"4M", 8, 0, 68387075, 0x3ffa47b0ed866bc1, 2647483, 0x3feef876fe8eee54, 0x3fa3f53db2565a37},
		{"4M", 8, 1, 68405468, 0x3ffa49555f64564c, 2647483, 0x3feef6553f7faa05, 0x3fa3f53db2565a37},
		{"4M", 8, 2, 68380671, 0x3ffa471e8a00b037, 2647483, 0x3feef935143a2b10, 0x3fa3f53db2565a37},
		{"8M", 1, 0, 344047800, 0x401bbb83b3b59d72, 4680956, 0x3fd5c4d43d39937a, 0x3fa526daf9c35470},
		{"8M", 1, 1, 343772199, 0x401bb60db83c0209, 4680956, 0x3fd5c94bf9987951, 0x3fa526daf9c35470},
		{"8M", 1, 2, 343853414, 0x401bb7a9ae808637, 4680956, 0x3fd5c7fabea18ba0, 0x3fa526daf9c35470},
		{"8M", 2, 0, 172023900, 0x400d513c240b69c0, 4680956, 0x3fe5c4d43d39937a, 0x3fa526daf9c35470},
		{"8M", 2, 1, 171887793, 0x400d4bbe5cfd7c2c, 4680956, 0x3fe5c93de86c78aa, 0x3fa526daf9c35470},
		{"8M", 2, 2, 171932534, 0x400d4d8c782fdaee, 4680956, 0x3fe5c7ca5ddba82e, 0x3fa526daf9c35470},
		{"8M", 4, 0, 119223900, 0x4005a9e818c6672d, 4680956, 0x3fef68d5eeffad46, 0x3fa526daf9c35470},
		{"8M", 4, 1, 119242293, 0x4005aaacd19339e8, 4680956, 0x3fef67986b5102f1, 0x3fa526daf9c35470},
		{"8M", 4, 2, 119217496, 0x4005a9a39a5b3501, 4680956, 0x3fef694481e851a2, 0x3fa526daf9c35470},
		{"8M", 8, 0, 119223900, 0x4006ffbed22619c4, 4680956, 0x3fef68d5eeffad46, 0x3fa526daf9c35470},
		{"8M", 8, 1, 119242293, 0x400700910b150f0b, 4680956, 0x3fef67986b5102f1, 0x3fa526daf9c35470},
		{"8M", 8, 2, 119217496, 0x4006ff75a0633c01, 4680956, 0x3fef694481e851a2, 0x3fa526daf9c35470},
		{"16M", 1, 0, 533212000, 0x4025b6300ebb84a7, 8464240, 0x3fd96603f9ad8c47, 0x3fa8904dee20ff96},
		{"16M", 1, 1, 532936399, 0x4025b37510feb6f3, 8464240, 0x3fd96960c1f84437, 0x3fa8904dee20ff96},
		{"16M", 1, 2, 533017614, 0x4025b4430c20f909, 8464240, 0x3fd9686301ccc34b, 0x3fa8904dee20ff96},
		{"16M", 2, 0, 266606000, 0x4017294a035950d4, 8464240, 0x3fe96603f9ad8c47, 0x3fa8904dee20ff96},
		{"16M", 2, 1, 266469893, 0x4017268b1fd25a0a, 8464240, 0x3fe969562c77afed, 0x3fa8904dee20ff96},
		{"16M", 2, 2, 266514634, 0x401727722d6b896a, 8464240, 0x3fe9683e99ebe6d7, 0x3fa8904dee20ff96},
		{"16M", 4, 0, 213806000, 0x4013996be1d06a10, 8464240, 0x3fefabb4ee5e2c7b, 0x3fa8904dee20ff96},
		{"16M", 4, 1, 213824393, 0x401399ce3e36d36d, 8464240, 0x3fefab02645c4198, 0x3fa8904dee20ff96},
		{"16M", 4, 2, 213799596, 0x40139949a29ad0fa, 8464240, 0x3fefabf319f20efe, 0x3fa8904dee20ff96},
		{"16M", 8, 0, 213806000, 0x4014cbef06b37868, 8464240, 0x3fefabb4ee5e2c7b, 0x3fa8904dee20ff96},
		{"16M", 8, 1, 213824393, 0x4014cc58232af30b, 8464240, 0x3fefab02645c4198, 0x3fa8904dee20ff96},
		{"16M", 8, 2, 213799596, 0x4014cbca6dd20986, 8464240, 0x3fefabf319f20efe, 0x3fa8904dee20ff96},
	}
	dev := dpu.New(dpu.ZCU104B4096())
	runners := map[string]*Runner{}
	for _, cfg := range unet.TableII() {
		q, err := quant.QuantizeShapeOnly(unet.New(cfg).Export(64, 64))
		if err != nil {
			t.Fatal(err)
		}
		prog, err := xmodel.Compile(q, cfg.Name)
		if err != nil {
			t.Fatal(err)
		}
		runners[cfg.Name] = New(dev, prog, 1)
	}
	for _, p := range pins {
		r := *runners[p.model]
		r.Threads = p.threads
		res, err := r.SimulateThroughput(50, p.seed)
		if err != nil {
			t.Fatal(err)
		}
		got := pin{p.model, p.threads, p.seed, res.Duration, math.Float64bits(res.Joules), res.FrameLatency,
			math.Float64bits(res.CoreBusyFrac), math.Float64bits(res.Utilization)}
		if got != p || res.Frames != 50 {
			t.Errorf("got %+v (%d frames), want %+v", got, res.Frames, p)
		}
	}
}
