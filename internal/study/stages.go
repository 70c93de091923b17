package study

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"seneca/internal/fault"
	"seneca/internal/imaging"
	"seneca/internal/metrics"
	"seneca/internal/nifti"
	"seneca/internal/par"
	"seneca/internal/phantom"
	"seneca/internal/tensor"
)

// writeBlobAtomic writes bytes produced by fill to path via a temp file and
// rename, so stage outputs appear on disk all-or-nothing — a crashed stage
// leaves either its complete artifact or nothing, never a torn file.
func writeBlobAtomic(path string, fill func(*os.File) error) error {
	// Chaos seam: a stage-artifact write that fails like a full disk.
	if err := fault.Check("study.blob.write"); err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// readBlob reads one stage artifact, behind the "study.blob.read" chaos
// seam (an I/O error on a durable intermediate).
func readBlob(path string) ([]byte, error) {
	if err := fault.Check("study.blob.read"); err != nil {
		return nil, err
	}
	return os.ReadFile(path)
}

// workingSet is what one run of a job hands from stage to stage in memory.
// The rule it serves: the disk is for crashes, not for hand-off. A stage
// takes its input from here when the stage before it, in this same run, left
// it; otherwise — a job resumed by a reopened store, or the attempt after a
// failed one, which drops the whole set because a stage may fail after
// changing it in place — it loads the durable artifact an earlier run or
// attempt wrote, exactly as every stage used to do every time. A field is cleared as soon as
// its last consumer has succeeded, so a run never holds more than the stage
// at hand needs.
type workingSet struct {
	input  *nifti.Volume // decoded CT: ingest → preprocess
	pre    [][]float32   // model-geometry slices: preprocess → infer; never on disk
	slices []uint8       // model-resolution masks: infer → reassemble
	labels []uint8       // native-resolution classes: reassemble → postprocess → report
}

// Where a stage found the artifact it consumes (the source label of
// seneca_study_artifact_loads_total).
const (
	fromMemory = "memory"
	fromDisk   = "disk"
)

// inputVolume is the decoded CT: the working set's, else the input blob's.
func (s *Service) inputVolume(id string, ws *workingSet) (*nifti.Volume, error) {
	if ws.input != nil {
		s.mLoads["input"][fromMemory].Inc()
		return ws.input, nil
	}
	vol, err := nifti.ReadFile(s.st.InputPath(id))
	if err != nil {
		return nil, fmt.Errorf("reading input volume: %w", err)
	}
	s.mLoads["input"][fromDisk].Inc()
	return vol, nil
}

// sliceMasks is the model-resolution mask stack: the working set's, else the
// slice-mask blob's.
func (s *Service) sliceMasks(id string, ws *workingSet) ([]uint8, error) {
	if ws.slices != nil {
		s.mLoads["slices"][fromMemory].Inc()
		return ws.slices, nil
	}
	masks, err := readBlob(s.st.SliceMaskPath(id))
	if err != nil {
		return nil, fmt.Errorf("reading slice masks: %w", err)
	}
	s.mLoads["slices"][fromDisk].Inc()
	return masks, nil
}

// maskLabels is the native-resolution label volume: the working set's, else
// the mask blob's.
func (s *Service) maskLabels(id string, ws *workingSet) ([]uint8, error) {
	if ws.labels != nil {
		s.mLoads["mask"][fromMemory].Inc()
		return ws.labels, nil
	}
	vol, err := nifti.ReadFile(s.st.MaskPath(id))
	if err != nil {
		return nil, fmt.Errorf("reading mask volume: %w", err)
	}
	s.mLoads["mask"][fromDisk].Inc()
	return volumeLabels(vol), nil
}

// writeMask persists the label volume as the job's NIfTI mask, carrying the
// input's voxel spacing.
func (s *Service) writeMask(j Job, labels []uint8) error {
	return writeBlobAtomic(s.st.MaskPath(j.ID), func(f *os.File) error {
		return nifti.WriteLabels(f, j.Nx, j.Ny, j.Nz, j.PixDim, labels)
	})
}

// preprocessVolume runs the SENECA input pipeline (Section III-A,
// imaging.PreprocessTo) over every axial slice, slices in parallel. It is
// the one producer of the infer stage's input: the preprocess stage calls
// it, and so does an infer stage that finds no stack in memory.
func (s *Service) preprocessVolume(ctx context.Context, vol *nifti.Volume) ([][]float32, error) {
	plane := vol.Nx * vol.Ny
	pre := make([][]float32, vol.Nz)
	par.For(vol.Nz, func(z int) {
		if ctx.Err() == nil {
			pre[z] = imaging.PreprocessTo(vol.Data[plane*z:plane*(z+1)], vol.Ny, vol.Nx, s.inH, s.inW)
		}
	})
	return pre, ctx.Err()
}

// stageIngest validates the uploaded volume (and ground truth, if any),
// records its geometry on the job and leaves the decoded CT for preprocess.
// The decode is from the input blob even right after an upload: what later
// stages and a resumed run see is the volume after its trip through the
// on-disk datatype, not the request body's.
func (s *Service) stageIngest(ctx context.Context, id string, ws *workingSet) error {
	vol, err := nifti.ReadFile(s.st.InputPath(id))
	if err != nil {
		return fmt.Errorf("reading input volume: %w", err)
	}
	j, _ := s.st.Get(id)
	if j.HasTruth {
		truth, err := nifti.ReadFile(s.st.TruthPath(id))
		if err != nil {
			return fmt.Errorf("reading ground-truth volume: %w", err)
		}
		if truth.Nx != vol.Nx || truth.Ny != vol.Ny || truth.Nz != vol.Nz {
			return fmt.Errorf("ground truth is %d×%d×%d, CT is %d×%d×%d",
				truth.Nx, truth.Ny, truth.Nz, vol.Nx, vol.Ny, vol.Nz)
		}
	}
	if err := s.st.Update(id, func(j *Job) {
		j.Nx, j.Ny, j.Nz = vol.Nx, vol.Ny, vol.Nz
		j.PixDim = vol.PixDim
	}); err != nil {
		return err
	}
	ws.input = vol
	return nil
}

// stagePreprocess resamples every axial slice to the model geometry. Its
// output lives only in the working set: the stack costs more to write and
// read back than to recompute from the durable input, so a job resumed at
// infer recomputes it (preprocessVolume) instead.
func (s *Service) stagePreprocess(ctx context.Context, id string, ws *workingSet) error {
	vol, err := s.inputVolume(id, ws)
	if err != nil {
		return err
	}
	pre, err := s.preprocessVolume(ctx, vol)
	if err != nil {
		return err
	}
	ws.input, ws.pre = nil, pre
	return nil
}

// stageInfer fans the preprocessed slices across the Segmenter, up to
// SliceParallel in flight at once, and persists the model-resolution mask
// stack. Slice order in the output is the volume's axial order regardless
// of completion order.
func (s *Service) stageInfer(ctx context.Context, id string, ws *workingSet) error {
	j, ok := s.st.Get(id)
	if !ok {
		return fmt.Errorf("job disappeared")
	}
	h, w := s.inH, s.inW
	pre := ws.pre
	if pre == nil {
		vol, err := s.inputVolume(id, ws)
		if err != nil {
			return err
		}
		if pre, err = s.preprocessVolume(ctx, vol); err != nil {
			return err
		}
	}
	if len(pre) != j.Nz {
		return fmt.Errorf("preprocessed stack has %d slices, want %d", len(pre), j.Nz)
	}

	masks := make([]byte, h*w*j.Nz)
	ictx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg       sync.WaitGroup
		firstErr error
		errOnce  sync.Once
		done     atomic.Int64
	)
	sem := make(chan struct{}, s.cfg.SliceParallel)
	for z := 0; z < j.Nz; z++ {
		select {
		case sem <- struct{}{}:
		case <-ictx.Done():
		}
		if ictx.Err() != nil {
			break
		}
		wg.Add(1)
		go func(z int) {
			defer wg.Done()
			defer func() { <-sem }()
			mask, err := s.seg.Submit(ictx, tensor.FromSlice(pre[z], 1, h, w))
			if err != nil {
				errOnce.Do(func() { firstErr = err; cancel() })
				return
			}
			pre[z] = nil // segmented: the slice's only consumer is done with it
			copy(masks[h*w*z:], mask)
			n := done.Add(1)
			s.mSlices.Inc()
			// Periodic progress checkpoints keep the status endpoint live
			// on long volumes without a persist per slice.
			if n%16 == 0 {
				s.st.Update(id, func(j *Job) { j.SlicesDone = int(n) })
			}
		}(z)
	}
	wg.Wait()
	if firstErr != nil {
		return fmt.Errorf("segmenting slices: %w", firstErr)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := s.st.Update(id, func(j *Job) { j.SlicesDone = j.Nz }); err != nil {
		return err
	}
	if err := writeBlobAtomic(s.st.SliceMaskPath(id), func(f *os.File) error {
		_, err := f.Write(masks)
		return err
	}); err != nil {
		return err
	}
	ws.pre, ws.slices = nil, masks
	return nil
}

// stageReassemble resamples each model-resolution mask back to the native
// slice geometry, slices in parallel, and persists the stack as a NIfTI
// label volume carrying the input's voxel spacing.
func (s *Service) stageReassemble(ctx context.Context, id string, ws *workingSet) error {
	j, ok := s.st.Get(id)
	if !ok {
		return fmt.Errorf("job disappeared")
	}
	h, w := s.inH, s.inW
	masks, err := s.sliceMasks(id, ws)
	if err != nil {
		return err
	}
	if len(masks) != h*w*j.Nz {
		return fmt.Errorf("slice mask stack is %d bytes, want %d", len(masks), h*w*j.Nz)
	}
	plane := j.Nx * j.Ny
	labels := make([]uint8, plane*j.Nz)
	par.For(j.Nz, func(z int) {
		if ctx.Err() == nil {
			copy(labels[plane*z:], imaging.ResizeNearestLabels(masks[h*w*z:h*w*(z+1)], h, w, j.Ny, j.Nx))
		}
	})
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := s.writeMask(j, labels); err != nil {
		return err
	}
	ws.slices, ws.labels = nil, labels
	return nil
}

// stagePostprocess applies the per-organ largest-connected-component filter
// to the reassembled volume (skipped when the job opted out). The removed
// counts are persisted before the filtered mask replaces the reassembled
// one, and a persisted count is never lowered: the filter is idempotent, so a
// run that resumes after the mask was replaced finds nothing left to remove,
// and what the interrupted run removed is what the job removed.
func (s *Service) stagePostprocess(ctx context.Context, id string, ws *workingSet) error {
	j, ok := s.st.Get(id)
	if !ok {
		return fmt.Errorf("job disappeared")
	}
	if !j.Postprocess {
		return nil
	}
	labels, err := s.maskLabels(id, ws)
	if err != nil {
		return err
	}
	removed := LargestComponents(labels, j.Nx, j.Ny, j.Nz, s.seg.NumClasses())
	err = s.st.Update(id, func(j *Job) {
		for class, n := range j.Removed {
			if class < len(removed) {
				removed[class] = max(removed[class], n)
			}
		}
		j.Removed = removed
	})
	if err != nil {
		return err
	}
	if err := s.writeMask(j, labels); err != nil {
		return err
	}
	ws.labels = labels
	return nil
}

// stageReport computes per-organ volumetrics (and Dice, with ground truth)
// from the final mask volume and stores the report on the job.
func (s *Service) stageReport(ctx context.Context, id string, ws *workingSet) error {
	j, ok := s.st.Get(id)
	if !ok {
		return fmt.Errorf("job disappeared")
	}
	pred, err := s.maskLabels(id, ws)
	if err != nil {
		return err
	}

	nc := s.seg.NumClasses()
	var truth []uint8
	if j.HasTruth {
		tv, err := nifti.ReadFile(s.st.TruthPath(id))
		if err != nil {
			return fmt.Errorf("reading ground-truth volume: %w", err)
		}
		truth = volumeLabels(tv)
		for _, v := range truth {
			if int(v) >= nc {
				nc = int(v) + 1
			}
		}
	}

	// Voxel volume from the NIfTI spacing: pixdim is mm per axis, so one
	// voxel is dx·dy·dz mm³ = dx·dy·dz/1000 mL.
	voxelML := float64(j.PixDim[0]) * float64(j.PixDim[1]) * float64(j.PixDim[2]) / 1000
	counts := make([]int64, nc)
	for _, v := range pred {
		if int(v) < nc {
			counts[v]++
		}
	}
	var conf *metrics.Confusion
	if truth != nil {
		conf = metrics.NewConfusion(nc)
		conf.Add(pred, truth)
	}

	rep := &Report{VoxelML: voxelML, Slices: j.Nz, HasTruth: truth != nil}
	for class := 1; class < nc; class++ {
		or := OrganReport{
			Class:    class,
			Name:     className(class),
			Voxels:   counts[class],
			VolumeML: float64(counts[class]) * voxelML,
		}
		if class < len(j.Removed) {
			or.RemovedVoxels = j.Removed[class]
		}
		if conf != nil {
			or.Dice = conf.Dice(class)
		}
		rep.Organs = append(rep.Organs, or)
	}
	if conf != nil {
		rep.GlobalDice = conf.GlobalDice()
	}
	if err := s.st.Update(id, func(j *Job) { j.Report = rep }); err != nil {
		return err
	}
	ws.labels = nil
	return nil
}

// volumeLabels converts a label volume's float voxels to uint8 classes.
func volumeLabels(v *nifti.Volume) []uint8 {
	out := make([]uint8, len(v.Data))
	for i, f := range v.Data {
		if f > 0 && f < 256 {
			out[i] = uint8(f)
		}
	}
	return out
}

// className resolves the CT-ORG organ name for a class index.
func className(class int) string {
	if class >= 0 && class < len(phantom.ClassNames) {
		return phantom.ClassNames[class]
	}
	return fmt.Sprintf("class%d", class)
}
