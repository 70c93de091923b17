package study

import (
	"os"
	"path/filepath"
	"testing"
)

func TestStoreRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	id, err := st.Create(Job{State: StateQueued, Stage: StageIngest, Nz: 7, Postprocess: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Update(id, func(j *Job) {
		j.State = StateRunning
		j.Stage = StageInfer
		j.SlicesDone = 3
	}); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	j, ok := st2.Get(id)
	if !ok {
		t.Fatal("job lost across reopen")
	}
	if j.State != StateRunning || j.Stage != StageInfer || j.SlicesDone != 3 || j.Nz != 7 || !j.Postprocess {
		t.Fatalf("record mangled across reopen: %+v", j)
	}
	if ids := st2.Resumable(); len(ids) != 1 || ids[0] != id {
		t.Fatalf("Resumable = %v, want [%s]", ids, id)
	}
}

func TestStoreReopenCleansTmpAndQuarantinesCorrupt(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	id, err := st.Create(Job{State: StateDone})
	if err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-rename plus an on-disk corruption.
	jobs := filepath.Join(dir, "jobs")
	if err := os.WriteFile(filepath.Join(jobs, "zzzz.json.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(jobs, "bad.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st2.Get(id); !ok {
		t.Fatal("valid record lost")
	}
	if len(st2.List()) != 1 {
		t.Fatalf("store loaded %d jobs, want 1", len(st2.List()))
	}
	if _, err := os.Stat(filepath.Join(jobs, "zzzz.json.tmp")); !os.IsNotExist(err) {
		t.Fatal("leftover tmp file not cleaned")
	}
	if _, err := os.Stat(filepath.Join(jobs, "bad.json.corrupt")); err != nil {
		t.Fatal("corrupt record not quarantined")
	}
}

func TestStoreDeleteRemovesRecordAndBlobs(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	id, err := st.Create(Job{State: StateQueued})
	if err != nil {
		t.Fatal(err)
	}
	other, err := st.Create(Job{State: StateQueued})
	if err != nil {
		t.Fatal(err)
	}
	// Every artifact, a torn write, and the stack an older layout kept.
	blobs := []string{
		st.InputPath(id), st.TruthPath(id), st.SliceMaskPath(id), st.MaskPath(id),
		st.MaskPath(id) + ".tmp", st.blob(id, ".pre.f32"),
	}
	for _, p := range append(blobs, st.InputPath(other)) {
		if err := os.WriteFile(p, []byte("blob"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	st.Delete(id)
	if _, ok := st.Get(id); ok {
		t.Fatal("deleted job still present")
	}
	for _, p := range blobs {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Fatalf("blob %s not deleted", filepath.Base(p))
		}
	}
	if _, err := os.Stat(st.InputPath(other)); err != nil {
		t.Fatal("deleting one job removed another job's blob")
	}
	st.Delete(other)
	if st2, _ := OpenStore(dir); len(st2.List()) != 0 {
		t.Fatal("deleted job resurrected on reopen")
	}
}

func TestStoreCounts(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []State{StateQueued, StateQueued, StateDone, StateFailed} {
		if _, err := st.Create(Job{State: s}); err != nil {
			t.Fatal(err)
		}
	}
	if n := st.CountState(StateQueued); n != 2 {
		t.Fatalf("queued = %d, want 2", n)
	}
	if n := st.CountState(StateRunning); n != 0 {
		t.Fatalf("running = %d, want 0", n)
	}
	if got := len(st.Resumable()); got != 2 {
		t.Fatalf("resumable = %d, want 2", got)
	}
}
