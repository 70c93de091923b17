package study

import (
	"bytes"
	"testing"
	"time"

	"seneca/internal/fault"
	"seneca/internal/nifti"
)

// TestChaosStudyPipelineRecovers runs one whole-volume job through a seeded
// fault program that breaks the decoder, the blob store and a whole stage —
// every failure inside the per-stage retry budget — then kills the service
// between two stages and breaks the resumed stage's blob read, and requires
// the job to finish with a mask bit-identical to the fault-free synchronous
// path.
func TestChaosStudyPipelineRecovers(t *testing.T) {
	srv := testSegmenter(t)
	vol := testVolume(t, 3)
	golden := syncMasks(t, srv, vol.CT)
	dir := t.TempDir()
	cfg := Config{Dir: dir, MaxAttempts: 5, RetryBackoff: 5 * time.Millisecond, Seed: 42}

	s, err := New(srv, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Count-capped, deterministic for a single job:
	//   nifti.read        ingest attempts 1 and 2 fail, attempt 3 reads
	//   study.stage.infer infer attempt 1 dies before running, which drops
	//                     the preprocessed stack with the rest of the
	//                     working set: attempt 2 on recompute it from the
	//                     input blob (nifti.read is spent by then)
	//   study.blob.write  After skips the submission's input-blob write —
	//                     preprocess writes nothing — so infer attempts 2
	//                     and 3 fail writing the slice masks, attempt 4 lands
	//   study.stage.reassemble
	//                     holds the job at the next boundary, where the
	//                     service is closed
	fault.Seed(42)
	fault.Enable("nifti.read", fault.Fault{Prob: 1, Count: 2})
	fault.Enable("study.blob.write", fault.Fault{Prob: 1, Count: 2, After: 1})
	fault.Enable("study.stage.infer", fault.Fault{Prob: 1, Count: 1})
	fault.Enable("study.stage.reassemble", fault.Fault{Delay: time.Hour, Count: 1})
	t.Cleanup(fault.Reset)

	id, err := s.SubmitVolume(vol.CT, nil, Options{Postprocess: false})
	if err != nil {
		t.Fatalf("submission must not be faulted (After skips its write): %v", err)
	}
	waitInjected(t, "study.stage.reassemble")
	s.Close()
	// Every programmed fault must actually have fired.
	for point, want := range map[string]int{
		"nifti.read": 2, "study.blob.write": 2, "study.stage.infer": 1,
	} {
		if got := fault.Injected(point); got != want {
			t.Errorf("%s: injected %d times, programmed %d", point, got, want)
		}
	}

	// A first run never reads back what it just wrote, so the blob-read
	// fault waits for the resumed one:
	//   study.blob.read   the resumed reassemble (attempt 2; attempt 1 was
	//                     the held one) cannot read the slice masks,
	//                     attempt 3 runs clean
	fault.Reset()
	fault.Enable("study.blob.read", fault.Fault{Prob: 1, Count: 1})
	s, err = New(srv, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	j := waitTerminal(t, s.st, id, 60*time.Second)
	if j.State != StateDone {
		t.Fatalf("job %s: state %s, error %q", id, j.State, j.Error)
	}
	if got := fault.Injected("study.blob.read"); got != 1 {
		t.Errorf("study.blob.read: injected %d times, programmed 1", got)
	}

	// The retries that absorbed them are on the record.
	for stage, want := range map[Stage]int{
		StageIngest: 3, StagePreprocess: 1, StageInfer: 4, StageReassemble: 3,
	} {
		if got := j.Attempts[string(stage)]; got != want {
			t.Errorf("%s attempts = %d, want %d", stage, got, want)
		}
	}

	// The output survived the chaos bit-for-bit.
	mv, err := nifti.ReadFile(s.st.MaskPath(id))
	if err != nil {
		t.Fatal(err)
	}
	if got := volumeLabels(mv); !bytes.Equal(got, golden) {
		t.Error("chaos-run mask diverges from the fault-free synchronous path")
	}
}
