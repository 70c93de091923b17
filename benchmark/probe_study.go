package main

// Probe surface — study (plus the phantom and imaging calls its oracle needs):
//
//	phantom.Generate, phantom.Options, phantom.DefaultOptions
//	imaging.Preprocess, imaging.ResizeNearestLabels
//	study.LargestComponents, study.OpenStore, (*study.Store).Create, .Update
//	study.Job, study.StateQueued

import (
	"bytes"
	"fmt"

	"seneca/internal/imaging"
	"seneca/internal/nifti"
	"seneca/internal/phantom"
	"seneca/internal/study"
)

// studyVolume is volume_study's input and its oracle.
type studyVolume struct {
	nx, ny, nz int
	ct         []byte  // the NIfTI body POSTed to /v1/volumes
	mask       []byte  // the NIfTI label volume the service must return, byte for byte
	labels     []uint8 // the same labels, unwrapped
}

// newStudyVolume generates a phantom CT of exactly nz slices at the model's
// own resolution from the seed, and computes the mask the study pipeline
// must produce for it: per slice preprocess → Program.Run → nearest-label
// resample, then the largest-component filter over the volume.
func newStudyVolume(m *model, seed int64, nz int) (*studyVolume, error) {
	opt := phantom.DefaultOptions()
	opt.Size, opt.Seed = m.size, seed
	// The generator jitters the slice count by ±25%; ask for enough that the
	// shortest draw still holds nz, then keep the middle nz.
	opt.Slices = (nz*4 + 2) / 3
	full := phantom.Generate(0, opt).CT
	if full.Nz < nz {
		return nil, fmt.Errorf("phantom gave %d slices, need %d", full.Nz, nz)
	}
	ct := nifti.NewVolume(full.Nx, full.Ny, nz, full.Datatype)
	ct.PixDim = full.PixDim
	z0 := (full.Nz - nz) / 2
	copy(ct.Data, full.Data[z0*full.Nx*full.Ny:(z0+nz)*full.Nx*full.Ny])
	var body bytes.Buffer
	if err := nifti.Write(&body, ct); err != nil {
		return nil, err
	}
	// The service sees the volume after its trip through the on-disk
	// datatype, so the oracle must too.
	stored, err := nifti.Read(bytes.NewReader(body.Bytes()))
	if err != nil {
		return nil, err
	}

	v := &studyVolume{nx: ct.Nx, ny: ct.Ny, nz: nz, ct: body.Bytes()}
	plane := v.nx * v.ny
	v.labels = make([]uint8, plane*nz)
	for z := range nz {
		mask, err := m.run(imaging.Preprocess(stored.Slice(z), v.ny, v.nx, m.size))
		if err != nil {
			return nil, err
		}
		copy(v.labels[z*plane:], imaging.ResizeNearestLabels(mask, m.size, m.size, v.ny, v.nx))
	}
	study.LargestComponents(v.labels, v.nx, v.ny, v.nz, m.numClasses())

	out := nifti.NewVolume(v.nx, v.ny, v.nz, nifti.DTUint8)
	out.PixDim = stored.PixDim
	for i, l := range v.labels {
		out.Data[i] = float32(l)
	}
	var mask bytes.Buffer
	if err := nifti.Write(&mask, out); err != nil {
		return nil, err
	}
	v.mask = mask.Bytes()
	return v, nil
}

// probeStudy times the public pieces of the study tier: the
// largest-component filter on labels and one durable job-record update.
func probeStudy(wk *walk, labels []uint8, nx, ny, nz, classes int, dir string) error {
	scratch := make([]uint8, len(labels))
	if err := wk.sample("study.lcc_ms", func() error {
		copy(scratch, labels)
		study.LargestComponents(scratch, nx, ny, nz, classes)
		return nil
	}); err != nil {
		return err
	}
	st, err := study.OpenStore(dir + "/walk-store")
	if err != nil {
		return err
	}
	id, err := st.Create(study.Job{State: study.StateQueued})
	if err != nil {
		return err
	}
	n := 0
	return wk.sample("study.store_update_us", func() error {
		n++
		return st.Update(id, func(j *study.Job) { j.SlicesDone = n })
	})
}
