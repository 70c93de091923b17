package study

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"mime/multipart"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"seneca/internal/dpu"
	"seneca/internal/imaging"
	"seneca/internal/nifti"
	"seneca/internal/phantom"
	"seneca/internal/quant"
	"seneca/internal/serve"
	"seneca/internal/tensor"
	"seneca/internal/unet"
	"seneca/internal/xmodel"
)

// testSegmenter builds the tiny 32×32 shape-only-quantized U-Net behind a
// serve.Server — the same backend the online tier uses, so the async volume
// path is tested against the real micro-batching pool.
func testSegmenter(t testing.TB) *serve.Server {
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
	srv, err := serve.New(dpu.New(dpu.ZCU104B4096()), prog, serve.Config{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return srv
}

// testVolume generates a small phantom patient with non-unit voxel spacing.
func testVolume(t testing.TB, patient int) *phantom.Volume {
	t.Helper()
	vol := phantom.Generate(patient, phantom.Options{Size: 40, Slices: 4, Seed: 11, NoiseSigma: 8})
	spacing := [3]float32{0.8, 0.8, 2.5}
	vol.CT.PixDim = spacing
	vol.Labels.PixDim = spacing
	// Round-trip the CT through its on-disk encoding (int16 quantization)
	// so in-memory comparisons see exactly the voxels the service reads.
	var buf bytes.Buffer
	if err := nifti.Write(&buf, vol.CT); err != nil {
		t.Fatal(err)
	}
	rt, err := nifti.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	vol.CT = rt
	return vol
}

// syncMasks runs every slice of ct through the synchronous serve path —
// preprocess, Submit, nearest-label resize back to native geometry — which
// the async pipeline's output must match bit for bit.
func syncMasks(t testing.TB, srv *serve.Server, ct *nifti.Volume) []uint8 {
	t.Helper()
	_, h, w := srv.InputShape()
	out := make([]uint8, ct.Nx*ct.Ny*ct.Nz)
	plane := ct.Nx * ct.Ny
	for z := 0; z < ct.Nz; z++ {
		img := imaging.PreprocessTo(ct.Slice(z), ct.Ny, ct.Nx, h, w)
		mask, err := srv.Submit(context.Background(), tensor.FromSlice(img, 1, h, w))
		if err != nil {
			t.Fatalf("sync submit slice %d: %v", z, err)
		}
		native := imaging.ResizeNearestLabels(mask, h, w, ct.Ny, ct.Nx)
		copy(out[plane*z:], native)
	}
	return out
}

func waitTerminal(t testing.TB, st *Store, id string, timeout time.Duration) Job {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if j, ok := st.Get(id); ok && j.Terminal() {
			return j
		}
		time.Sleep(5 * time.Millisecond)
	}
	j, _ := st.Get(id)
	t.Fatalf("job %s did not finish in %v (state %s, stage %s)", id, timeout, j.State, j.Stage)
	return Job{}
}

// TestEndToEndHTTPMatchesSyncPath is the acceptance test: POST a phantom
// NIfTI volume, poll the status endpoint to completion, download the mask,
// and require it to be slice-for-slice identical to the synchronous
// serve.Submit path. Postprocessing is disabled so the comparison is exact.
func TestEndToEndHTTPMatchesSyncPath(t *testing.T) {
	srv := testSegmenter(t)
	svc, err := New(srv, Config{Dir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	vol := testVolume(t, 1)
	var body bytes.Buffer
	if err := nifti.Write(&body, vol.CT); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/volumes?postprocess=0", "application/x-nifti", &body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	var sub struct {
		ID        string `json:"id"`
		StatusURL string `json:"status_url"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sub.ID == "" || sub.StatusURL != "/v1/volumes/"+sub.ID {
		t.Fatalf("bad submit response: %+v", sub)
	}

	// Poll the status endpoint until the job reports done.
	var status statusView
	deadline := time.Now().Add(60 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %+v", status)
		}
		r, err := http.Get(ts.URL + sub.StatusURL)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(r.Body).Decode(&status); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if status.State == StateFailed {
			t.Fatalf("job failed: %s", status.Error)
		}
		if status.State == StateDone {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if status.Progress != 1 {
		t.Fatalf("done job progress = %v, want 1", status.Progress)
	}
	if status.Nx != vol.CT.Nx || status.Ny != vol.CT.Ny || status.Nz != vol.CT.Nz {
		t.Fatalf("recorded geometry %d×%d×%d, want %d×%d×%d",
			status.Nx, status.Ny, status.Nz, vol.CT.Nx, vol.CT.Ny, vol.CT.Nz)
	}
	if status.Report == nil || status.Report.Slices != vol.CT.Nz || status.Report.HasTruth {
		t.Fatalf("bad report: %+v", status.Report)
	}

	// Download the mask and compare against the synchronous path.
	r, err := http.Get(ts.URL + sub.StatusURL + "/mask")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("mask status = %d, want 200", r.StatusCode)
	}
	got, err := nifti.Read(r.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got.Nx != vol.CT.Nx || got.Ny != vol.CT.Ny || got.Nz != vol.CT.Nz {
		t.Fatalf("mask geometry %d×%d×%d, want input geometry", got.Nx, got.Ny, got.Nz)
	}
	if got.PixDim != vol.CT.PixDim {
		t.Fatalf("mask spacing %v, want %v", got.PixDim, vol.CT.PixDim)
	}
	want := syncMasks(t, srv, vol.CT)
	plane := vol.CT.Nx * vol.CT.Ny
	for z := 0; z < vol.CT.Nz; z++ {
		for i := 0; i < plane; i++ {
			if uint8(got.Data[plane*z+i]) != want[plane*z+i] {
				t.Fatalf("slice %d: async mask diverges from sync serve path at voxel %d", z, i)
			}
		}
	}
}

// TestHTTPMultipartWithTruthProducesDice submits CT + ground truth via
// multipart and checks the volumetric report: mL math from the voxel
// spacing, per-organ Dice present and in range.
func TestHTTPMultipartWithTruthProducesDice(t *testing.T) {
	srv := testSegmenter(t)
	svc, err := New(srv, Config{Dir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	vol := testVolume(t, 2)
	var body bytes.Buffer
	mw := multipart.NewWriter(&body)
	for _, part := range []struct {
		name string
		v    *nifti.Volume
	}{{"ct", vol.CT}, {"gt", vol.Labels}} {
		fw, err := mw.CreateFormFile(part.name, part.name+".nii")
		if err != nil {
			t.Fatal(err)
		}
		if err := nifti.Write(fw, part.v); err != nil {
			t.Fatal(err)
		}
	}
	mw.Close()
	resp, err := http.Post(ts.URL+"/v1/volumes", mw.FormDataContentType(), &body)
	if err != nil {
		t.Fatal(err)
	}
	var sub struct {
		ID string `json:"id"`
	}
	if resp.StatusCode != http.StatusAccepted {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit status = %d: %s", resp.StatusCode, raw)
	}
	json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()

	j := waitTerminal(t, svc.Store(), sub.ID, 60*time.Second)
	if j.State != StateDone {
		t.Fatalf("job %s: %s", j.State, j.Error)
	}
	if !j.HasTruth || j.Report == nil || !j.Report.HasTruth {
		t.Fatalf("truth not threaded through: %+v", j.Report)
	}
	rep := j.Report
	wantVoxelML := 0.8 * 0.8 * 2.5 / 1000
	if math.Abs(rep.VoxelML-wantVoxelML) > 1e-9 {
		t.Fatalf("VoxelML = %v, want %v", rep.VoxelML, wantVoxelML)
	}
	if len(rep.Organs) != phantom.NumClasses-1 {
		t.Fatalf("report has %d organs, want %d", len(rep.Organs), phantom.NumClasses-1)
	}
	for _, o := range rep.Organs {
		if o.Name != phantom.ClassNames[o.Class] {
			t.Fatalf("class %d named %q, want %q", o.Class, o.Name, phantom.ClassNames[o.Class])
		}
		if math.Abs(o.VolumeML-float64(o.Voxels)*rep.VoxelML) > 1e-6 {
			t.Fatalf("organ %s: VolumeML %v inconsistent with %d voxels", o.Name, o.VolumeML, o.Voxels)
		}
		if o.Dice < 0 || o.Dice > 1 || math.IsNaN(o.Dice) {
			t.Fatalf("organ %s: Dice = %v out of range", o.Name, o.Dice)
		}
	}
	if rep.GlobalDice < 0 || rep.GlobalDice > 1 {
		t.Fatalf("GlobalDice = %v out of range", rep.GlobalDice)
	}
	// Postprocess defaulted on: the job must record the removal counts.
	if j.Removed == nil {
		t.Fatal("postprocessed job has no Removed counts")
	}
}

func TestHTTPErrorPaths(t *testing.T) {
	srv := testSegmenter(t)
	svc, err := New(srv, Config{Dir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	if r, _ := http.Get(ts.URL + "/v1/volumes/nope"); r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job status = %d, want 404", r.StatusCode)
	}
	if r, _ := http.Get(ts.URL + "/v1/volumes/nope/mask"); r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job mask = %d, want 404", r.StatusCode)
	}
	r, _ := http.Post(ts.URL+"/v1/volumes", "text/plain", bytes.NewBufferString("hi"))
	if r.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("bad content type = %d, want 415", r.StatusCode)
	}
	r, _ = http.Post(ts.URL+"/v1/volumes", "application/x-nifti", bytes.NewBufferString("not nifti"))
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body = %d, want 400", r.StatusCode)
	}

	// A queued-but-unfinished job refuses to serve its mask.
	vol := testVolume(t, 3)
	id, err := svc.SubmitVolume(vol.CT, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r, _ := http.Get(ts.URL + "/v1/volumes/" + id + "/mask"); r.StatusCode != http.StatusConflict && r.StatusCode != http.StatusOK {
		t.Fatalf("pending mask = %d, want 409 (or 200 if already done)", r.StatusCode)
	}
	waitTerminal(t, svc.Store(), id, 60*time.Second)
}

// gateSeg wraps a Segmenter and blocks every Submit until gate is closed,
// while still honoring context cancellation — the hook the resumability and
// queue-full tests use to freeze a job inside the infer stage.
type gateSeg struct {
	inner   Segmenter
	gate    chan struct{}
	once    sync.Once
	entered chan struct{} // closed on the first Submit
}

func newGateSeg(inner Segmenter) *gateSeg {
	return &gateSeg{inner: inner, gate: make(chan struct{}), entered: make(chan struct{})}
}

func (g *gateSeg) Submit(ctx context.Context, img *tensor.Tensor) ([]uint8, error) {
	g.once.Do(func() { close(g.entered) })
	select {
	case <-g.gate:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return g.inner.Submit(ctx, img)
}

func (g *gateSeg) InputShape() (int, int, int) { return g.inner.InputShape() }
func (g *gateSeg) NumClasses() int             { return g.inner.NumClasses() }

// TestResumeAfterShutdownMidInfer is the durability acceptance test: a
// service is killed while a job sits inside the infer stage; reopening the
// same store resumes the job at that stage (earlier stages are not re-run)
// and it completes with the exact output of the synchronous path.
func TestResumeAfterShutdownMidInfer(t *testing.T) {
	srv := testSegmenter(t)
	dir := t.TempDir()
	gate := newGateSeg(srv)
	svc1, err := New(gate, Config{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	vol := testVolume(t, 4)
	id, err := svc1.SubmitVolume(vol.CT, nil, Options{Postprocess: false})
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to enter the infer stage, then kill the service
	// with the job frozen mid-stage.
	select {
	case <-gate.entered:
	case <-time.After(30 * time.Second):
		t.Fatal("job never reached the infer stage")
	}
	if err := svc1.Close(); err != nil {
		t.Fatal(err)
	}

	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	j, ok := st.Get(id)
	if !ok {
		t.Fatal("job record lost across shutdown")
	}
	if j.Terminal() {
		t.Fatalf("interrupted job is terminal: %+v", j)
	}
	if j.Stage != StageInfer {
		t.Fatalf("interrupted job at stage %q, want %q", j.Stage, StageInfer)
	}
	preAttempts := j.Attempts[string(StagePreprocess)]

	// Reopen with an unblocked segmenter: the job must resume and finish.
	svc2, err := New(srv, Config{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	j = waitTerminal(t, svc2.Store(), id, 60*time.Second)
	if j.State != StateDone {
		t.Fatalf("resumed job %s: %s", j.State, j.Error)
	}
	if got := j.Attempts[string(StagePreprocess)]; got != preAttempts {
		t.Fatalf("preprocess re-ran on resume: attempts %d → %d", preAttempts, got)
	}
	if j.Attempts[string(StageInfer)] < 2 {
		t.Fatalf("infer attempts = %d, want ≥2 (one interrupted, one resumed)", j.Attempts[string(StageInfer)])
	}

	got, err := nifti.ReadFile(svc2.Store().MaskPath(id))
	if err != nil {
		t.Fatal(err)
	}
	want := syncMasks(t, srv, vol.CT)
	for i := range want {
		if uint8(got.Data[i]) != want[i] {
			t.Fatalf("resumed mask diverges from sync path at voxel %d", i)
		}
	}
}

// failSeg fails every Submit, driving the retry/backoff path to exhaustion.
type failSeg struct{ inner Segmenter }

func (f *failSeg) Submit(context.Context, *tensor.Tensor) ([]uint8, error) {
	return nil, errors.New("injected inference failure")
}
func (f *failSeg) InputShape() (int, int, int) { return f.inner.InputShape() }
func (f *failSeg) NumClasses() int             { return f.inner.NumClasses() }

func TestStageRetryExhaustionFailsJob(t *testing.T) {
	srv := testSegmenter(t)
	svc, err := New(&failSeg{inner: srv}, Config{
		Dir: t.TempDir(), Workers: 1, MaxAttempts: 2, RetryBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	vol := testVolume(t, 5)
	id, err := svc.SubmitVolume(vol.CT, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j := waitTerminal(t, svc.Store(), id, 30*time.Second)
	if j.State != StateFailed {
		t.Fatalf("job state = %s, want failed", j.State)
	}
	if j.Error == "" {
		t.Fatal("failed job has no error")
	}
	if got := j.Attempts[string(StageInfer)]; got != 2 {
		t.Fatalf("infer attempts = %d, want MaxAttempts (2)", got)
	}
}

func TestSubmitAfterCloseAndQueueFull(t *testing.T) {
	srv := testSegmenter(t)
	gate := newGateSeg(srv)
	svc, err := New(gate, Config{Dir: t.TempDir(), Workers: 1, QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	vol := testVolume(t, 6)

	// Job A occupies the single worker (frozen in infer)...
	if _, err := svc.SubmitVolume(vol.CT, nil, Options{}); err != nil {
		t.Fatal(err)
	}
	select {
	case <-gate.entered:
	case <-time.After(30 * time.Second):
		t.Fatal("job never reached the infer stage")
	}
	// ...job B fills the queue's single slot, job C must bounce.
	if _, err := svc.SubmitVolume(vol.CT, nil, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.SubmitVolume(vol.CT, nil, Options{}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit error = %v, want ErrQueueFull", err)
	}
	before := len(svc.Store().List())

	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.SubmitVolume(vol.CT, nil, Options{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close submit error = %v, want ErrClosed", err)
	}
	// The bounced job must not leak a record.
	if got := len(svc.Store().List()); got != before {
		t.Fatalf("store grew from %d to %d jobs after rejected submits", before, got)
	}
}

// TestConcurrentSubmitAndReopen exercises the worker pool under the race
// detector: concurrent submissions racing status reads, then a reopen of
// the same store with everything resumed to completion.
func TestConcurrentSubmitAndReopen(t *testing.T) {
	srv := testSegmenter(t)
	dir := t.TempDir()
	svc, err := New(srv, Config{Dir: dir, Workers: 2, SliceParallel: 2})
	if err != nil {
		t.Fatal(err)
	}

	const jobs = 4
	ids := make([]string, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vol := testVolume(t, 10+i)
			id, err := svc.SubmitVolume(vol.CT, vol.Labels, Options{Postprocess: true})
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			ids[i] = id
			// Hammer the read paths while workers run.
			for k := 0; k < 20; k++ {
				svc.Store().Get(id)
				svc.Store().List()
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for _, id := range ids {
		j := waitTerminal(t, svc.Store(), id, 120*time.Second)
		if j.State != StateDone {
			t.Fatalf("job %s: %s (%s)", id, j.State, j.Error)
		}
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen the store: all jobs terminal, nothing to resume, records intact.
	svc2, err := New(srv, Config{Dir: dir, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	if n := svc2.Store().CountState(StateDone); n != jobs {
		t.Fatalf("reopened store has %d done jobs, want %d", n, jobs)
	}
	for _, id := range ids {
		j, ok := svc2.Store().Get(id)
		if !ok || j.Report == nil {
			t.Fatalf("job %s lost its report across reopen", id)
		}
	}
}
