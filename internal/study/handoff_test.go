package study

import (
	"bytes"
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"seneca/internal/fault"
	"seneca/internal/imaging"
	"seneca/internal/nifti"
	"seneca/internal/tensor"
)

// loads reads seneca_study_artifact_loads_total{artifact, source}.
func (s *Service) loads(artifact, source string) uint64 { return s.mLoads[artifact][source].Value() }

// diskLoads sums the counter's source="disk" series over every artifact.
func (s *Service) diskLoads() uint64 {
	return s.loads("input", fromDisk) + s.loads("slices", fromDisk) + s.loads("mask", fromDisk)
}

// workingSets is how many jobs hold a working set right now.
func (s *Service) workingSets() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.work)
}

// settled waits for the process to be back at base goroutines: a service
// that has been closed, or whose jobs are all terminal, must have left none
// of its own behind beyond its idle workers (which the caller counts in base).
func settled(t *testing.T, base int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// waitInjected waits until the named fault point has fired: for a stall
// programmed at a stage's seam, until the job is held at that stage.
func waitInjected(t *testing.T, point string) {
	t.Helper()
	for deadline := time.Now().Add(60 * time.Second); fault.Injected(point) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("fault point %s never fired", point)
		}
	}
}

// stopAt runs one job on a fresh service over dir until it reaches the given
// stage, holds it there — a stall programmed at the stage's own chaos seam,
// which the attempt enters before it does any work — and closes the service:
// the process "dies" exactly at the boundary before that stage. It returns
// the job's id.
func stopAt(t *testing.T, seg Segmenter, dir string, ct *nifti.Volume, stage Stage) string {
	t.Helper()
	point := "study.stage." + string(stage)
	fault.Enable(point, fault.Fault{Delay: time.Hour, Count: 1})
	defer fault.Reset()
	svc, err := New(seg, Config{Dir: dir, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	id, err := svc.SubmitVolume(ct, nil, Options{Postprocess: true})
	if err != nil {
		t.Fatal(err)
	}
	waitInjected(t, point)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if n := svc.workingSets(); n != 0 {
		t.Fatalf("closed at %s with %d working set(s) still held", stage, n)
	}
	return id
}

// TestChaosResumeAtEveryStageBoundary enumerates the crash points of the
// stage sequence instead of sampling one: the service is stopped after each
// of the six stages in turn, once in the middle of infer and once between
// postprocess's two writes and its completion, the store is reopened, and the job must finish with the mask file of an undisturbed run,
// byte for byte, without re-running a completed stage. Since stages hand
// their outputs over in memory, it also pins where each side of that rule
// gets its input: a straight-through job loads nothing from disk, and a
// resumed stage loads exactly its own durable input — for infer, the input
// volume it recomputes the preprocessed stack from.
func TestChaosResumeAtEveryStageBoundary(t *testing.T) {
	srv := testSegmenter(t)
	ct := testVolume(t, 7).CT
	t.Cleanup(fault.Reset)

	// The undisturbed run.
	straight, err := New(srv, Config{Dir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	id, err := straight.SubmitVolume(ct, nil, Options{Postprocess: true})
	if err != nil {
		t.Fatal(err)
	}
	if j := waitTerminal(t, straight.st, id, 60*time.Second); j.State != StateDone {
		t.Fatalf("undisturbed job: %s (%s)", j.State, j.Error)
	}
	golden, err := os.ReadFile(straight.st.MaskPath(id))
	if err != nil {
		t.Fatal(err)
	}
	if n := straight.diskLoads(); n != 0 {
		t.Errorf("a straight-through job loaded %d artifact(s) from disk, want none", n)
	}
	for artifact, want := range map[string]uint64{"input": 1, "slices": 1, "mask": 2} { // mask: postprocess and report
		if got := straight.loads(artifact, fromMemory); got != want {
			t.Errorf("straight-through job took %q from memory %d time(s), want %d", artifact, got, want)
		}
	}
	straight.Close()

	goldenJob, _ := straight.st.Get(id)

	// resume reopens dir, lets the job finish and checks it against the
	// undisturbed run. wantDisk is the one artifact the resumed stage must
	// have loaded ("" for none).
	resume := func(t *testing.T, dir, id string, at Stage, wantDisk string) {
		t.Helper()
		st, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		before, ok := st.Get(id)
		if !ok {
			t.Fatal("job record lost across the stop")
		}
		if before.Stage != at {
			t.Fatalf("stopped job is at stage %q, want %q", before.Stage, at)
		}
		svc, err := New(srv, Config{Dir: dir, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		after := waitTerminal(t, svc.st, id, 60*time.Second)
		if after.State != StateDone {
			t.Fatalf("resumed job: %s (%s)", after.State, after.Error)
		}
		for _, done := range stageOrder[:stageIndex(at)] {
			if after.Attempts[string(done)] != before.Attempts[string(done)] {
				t.Errorf("completed stage %s ran again on resume: attempts %d → %d",
					done, before.Attempts[string(done)], after.Attempts[string(done)])
			}
		}
		got, err := os.ReadFile(svc.st.MaskPath(id))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, golden) {
			t.Error("resumed job's mask file differs from the undisturbed run's")
		}
		if !reflect.DeepEqual(after.Report, goldenJob.Report) {
			t.Errorf("resumed at %s: report differs from the undisturbed run's:\n got %+v\nwant %+v", at, after.Report, goldenJob.Report)
		}
		for _, artifact := range []string{"input", "slices", "mask"} {
			want := uint64(0)
			if artifact == wantDisk {
				want = 1
			}
			if got := svc.loads(artifact, fromDisk); got != want {
				t.Errorf("resumed at %s: %q loaded from disk %d time(s), want %d", at, artifact, got, want)
			}
		}
	}

	// What each stage loads when it is the first of a run.
	durableInput := map[Stage]string{
		StagePreprocess: "input", StageInfer: "input", StageReassemble: "slices",
		StagePostprocess: "mask", StageReport: "mask",
	}
	for i, done := range stageOrder[:len(stageOrder)-1] {
		next := stageOrder[i+1]
		t.Run("after "+string(done), func(t *testing.T) {
			dir := t.TempDir()
			id := stopAt(t, srv, dir, ct, next)
			resume(t, dir, id, next, durableInput[next])
		})
	}

	t.Run("inside postprocess, mask replaced", func(t *testing.T) {
		// Stopped after the filtered mask has replaced the reassembled one but
		// before the stage's completion is durable: the record a finished job
		// leaves, wound back to where that stop would have left it. The
		// re-run filters an already filtered mask, finds nothing to remove,
		// and must still report what the interrupted run removed.
		var removed int64
		for _, o := range goldenJob.Report.Organs {
			removed += o.RemovedVoxels
		}
		if removed == 0 {
			t.Fatal("the filter removes nothing from the test volume: this stop would prove nothing")
		}
		dir := t.TempDir()
		svc, err := New(srv, Config{Dir: dir, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		id, err := svc.SubmitVolume(ct, nil, Options{Postprocess: true})
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, svc.st, id, 60*time.Second)
		svc.Close()
		st, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		err = st.Update(id, func(j *Job) { j.State, j.Stage, j.Report = StateRunning, StagePostprocess, nil })
		if err != nil {
			t.Fatal(err)
		}
		resume(t, dir, id, StagePostprocess, "mask")
	})

	t.Run("after report", func(t *testing.T) {
		// Nothing is left to resume: the reopened store serves the finished
		// job as it is and runs no stage.
		dir := t.TempDir()
		svc, err := New(srv, Config{Dir: dir, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		id, err := svc.SubmitVolume(ct, nil, Options{Postprocess: true})
		if err != nil {
			t.Fatal(err)
		}
		before := waitTerminal(t, svc.st, id, 60*time.Second)
		svc.Close()
		again, err := New(srv, Config{Dir: dir, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer again.Close()
		after, _ := again.st.Get(id)
		if after.State != StateDone || len(again.st.Resumable()) != 0 {
			t.Fatalf("finished job reopened as %s with %d job(s) to resume", after.State, len(again.st.Resumable()))
		}
		for _, stage := range stageOrder {
			if after.Attempts[string(stage)] != before.Attempts[string(stage)] {
				t.Errorf("stage %s ran again on a finished job", stage)
			}
		}
		if got, _ := os.ReadFile(again.st.MaskPath(id)); !bytes.Equal(got, golden) {
			t.Error("finished job's mask file differs from the undisturbed run's")
		}
	})

	t.Run("mid infer, store in the parent layout", func(t *testing.T) {
		// Killed with slices in flight; and the store carries the .pre.f32
		// stack a build from before the hand-off would have left there. The
		// resumed infer ignores it and recomputes from the durable input;
		// deleting the job still removes it.
		dir := t.TempDir()
		gate := newGateSeg(srv)
		svc, err := New(gate, Config{Dir: dir, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		id, err := svc.SubmitVolume(ct, nil, Options{Postprocess: true})
		if err != nil {
			t.Fatal(err)
		}
		select {
		case <-gate.entered:
		case <-time.After(30 * time.Second):
			t.Fatal("job never reached the infer stage")
		}
		svc.Close()
		stray := svc.st.blob(id, ".pre.f32")
		if err := os.WriteFile(stray, []byte("not a float32 stack"), 0o644); err != nil {
			t.Fatal(err)
		}
		resume(t, dir, id, StageInfer, "input")

		st, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		st.Delete(id)
		if left, _ := os.ReadDir(dir + "/blobs"); len(left) != 0 {
			t.Errorf("Delete left %d blob(s) behind, %s among them", len(left), left[0].Name())
		}
	})
}

// TestWorkingSetReleasedAndGoroutinesSettle is the study tier's leak check:
// after a straight-through job, after a job that exhausted its retries and
// after Close on a job in flight, no working set is still held and the
// process is back at the goroutine count it had before.
func TestWorkingSetReleasedAndGoroutinesSettle(t *testing.T) {
	srv := testSegmenter(t)
	ct := testVolume(t, 8).CT
	t.Cleanup(fault.Reset)
	// One frame through the serving tier first, so whatever it starts
	// lazily is part of the baseline.
	syncMasks(t, srv, ct)
	base := runtime.NumGoroutine()

	svc, err := New(srv, Config{Dir: t.TempDir(), Workers: 2, MaxAttempts: 2, RetryBackoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	idle := base + 2 // the two workers, waiting for a job

	id, err := svc.SubmitVolume(ct, nil, Options{Postprocess: true})
	if err != nil {
		t.Fatal(err)
	}
	if j := waitTerminal(t, svc.st, id, 60*time.Second); j.State != StateDone {
		t.Fatalf("job: %s (%s)", j.State, j.Error)
	}
	settled(t, idle, "after a straight-through job")
	if n := svc.workingSets(); n != 0 {
		t.Fatalf("%d working set(s) held after a straight-through job", n)
	}

	// Every reassemble attempt fails after infer has filled the set.
	fault.Enable("study.stage.reassemble", fault.Error(1, nil))
	id, err = svc.SubmitVolume(ct, nil, Options{Postprocess: true})
	if err != nil {
		t.Fatal(err)
	}
	if j := waitTerminal(t, svc.st, id, 60*time.Second); j.State != StateFailed {
		t.Fatalf("job: %s, want failed", j.State)
	}
	fault.Reset()
	settled(t, idle, "after a job that exhausted its retries")
	if n := svc.workingSets(); n != 0 {
		t.Fatalf("%d working set(s) held after a failed job", n)
	}

	// Close with a job held inside reassemble, its working set full.
	fault.Enable("study.stage.reassemble", fault.Fault{Delay: time.Hour, Count: 1})
	if _, err = svc.SubmitVolume(ct, nil, Options{Postprocess: true}); err != nil {
		t.Fatal(err)
	}
	waitInjected(t, "study.stage.reassemble")
	if n := svc.workingSets(); n != 1 {
		t.Fatalf("%d working set(s) held with one job running, want 1", n)
	}
	svc.Close()
	settled(t, base, "after Close")
	if n := svc.workingSets(); n != 0 {
		t.Fatalf("%d working set(s) held after Close", n)
	}
}

// TestMetricsContract pins every series the study tier exports — name and
// label set — as scraped from its registry, so a rename or a dropped label is
// a failing test rather than a silent break for whoever scrapes it.
func TestMetricsContract(t *testing.T) {
	svc, err := New(testSegmenter(t), Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	want := []string{
		`seneca_study_jobs_total{outcome="done"}`,
		`seneca_study_jobs_total{outcome="failed"}`,
		`seneca_study_slices_per_second`,
		`seneca_study_slices_total`,
	}
	for _, state := range States {
		want = append(want, `seneca_study_jobs{state="`+string(state)+`"}`)
	}
	for _, stage := range stageOrder {
		l := `{stage="` + string(stage) + `"}`
		want = append(want,
			"seneca_study_stage_duration_seconds_bucket"+l,
			"seneca_study_stage_duration_seconds_count"+l,
			"seneca_study_stage_duration_seconds_sum"+l,
			"seneca_study_stage_retries_total"+l)
	}
	for _, artifact := range []string{"input", "slices", "mask"} {
		for _, source := range []string{"memory", "disk"} {
			want = append(want, `seneca_study_artifact_loads_total{artifact="`+artifact+`",source="`+source+`"}`)
		}
	}
	sort.Strings(want)

	// A series is a sample line up to its value; a histogram's buckets count
	// as one series, whatever their bounds.
	le := regexp.MustCompile(`,?le="[^"]*"`)
	seen := map[string]bool{}
	for _, line := range strings.Split(svc.Metrics().Expose(), "\n") {
		if !strings.HasPrefix(line, "seneca_study_") {
			continue
		}
		seen[le.ReplaceAllString(line[:strings.LastIndexByte(line, ' ')], "")] = true
	}
	got := make([]string, 0, len(seen))
	for series := range seen {
		got = append(got, series)
	}
	sort.Strings(got)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("exported seneca_study_* series changed.\ngot:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestNonFiniteVoxelsSegmentLikeClipped is the end-to-end half of the
// non-finite rule internal/imaging defines: a float32 NIfTI carrying NaN and
// ±Inf voxels — a NaN at pixel 0, which used to blank the whole slice, and
// more +Inf than the 1% tail holds, which used to flatten it — goes through
// POST /v1/volumes and comes back with the mask of the same volume with those
// voxels clipped by hand: bounds from the finite voxels of each slice, NaN
// and −Inf set to the lower one, +Inf to the upper, then the usual rescale.
func TestNonFiniteVoxelsSegmentLikeClipped(t *testing.T) {
	srv := testSegmenter(t)
	_, h, w := srv.InputShape()
	// At the model's own geometry the resample is a copy, so a bad voxel
	// stays one bad pixel rather than spreading into its neighbours.
	base := testVolume(t, 9).CT
	ct := nifti.NewVolume(w, h, base.Nz, nifti.DTFloat32)
	ct.PixDim = base.PixDim
	plane := h * w
	for z := 0; z < ct.Nz; z++ {
		copy(ct.Data[plane*z:plane*(z+1)], imaging.ResizeBilinear(base.Slice(z), base.Ny, base.Nx, h, w))
	}
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	ct.Data[0] = nan                // slice 0, pixel 0
	for i := 0; i < plane/25; i++ { // slice 1: 4% of the pixels +Inf, a few −Inf and NaN
		ct.Data[plane+7+23*i] = inf
	}
	ct.Data[plane+3], ct.Data[plane+4], ct.Data[plane+5] = -inf, -inf, nan
	ct.Data[2*plane+plane/2] = -inf // slice 2: a lone −Inf mid-slice

	want := make([]uint8, 0, plane*ct.Nz)
	for z := 0; z < ct.Nz; z++ {
		img := ct.Slice(z)
		var finite []float32
		for _, v := range img {
			if !math.IsNaN(float64(v)) && !math.IsInf(float64(v), 0) {
				finite = append(finite, v)
			}
		}
		lo, hi := imaging.SaturatePercentiles(finite, 0.01, 0.99)
		for i, v := range img {
			if v > hi {
				img[i] = hi
			} else if !(v >= lo) {
				img[i] = lo
			}
		}
		imaging.RescaleToUnit(img)
		mask, err := srv.Submit(context.Background(), tensor.FromSlice(img, 1, h, w))
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, mask...)
	}
	if bytes.Count(want[:plane], want[:1]) == plane {
		t.Fatal("the hand-clipped reference for slice 0 is one flat class; the comparison would prove nothing")
	}

	svc, err := New(srv, Config{Dir: t.TempDir(), Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	var body bytes.Buffer
	if err := nifti.Write(&body, ct); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/volumes?postprocess=0", "application/x-nifti", &body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	id := strings.TrimPrefix(resp.Header.Get("Location"), "/v1/volumes/")
	if j := waitTerminal(t, svc.st, id, 60*time.Second); j.State != StateDone {
		t.Fatalf("job: %s (%s)", j.State, j.Error)
	}
	resp, err = http.Get(ts.URL + "/v1/volumes/" + id + "/mask")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	mv, err := nifti.Read(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got := volumeLabels(mv); !bytes.Equal(got, want) {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("mask differs from the hand-clipped volume's at voxel %d (slice %d): %d vs %d", i, i/plane, got[i], want[i])
			}
		}
	}
}
