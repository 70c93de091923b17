package main

// Probe surface — nifti:
//
//	nifti.NewVolume, nifti.Read, nifti.Write
//	nifti.Volume.{Nx,Ny,Nz,Data,PixDim}, nifti.DTFloat32

import (
	"bytes"
	"io"

	"seneca/internal/nifti"
)

// encodeNIfTISlice wraps one size×size float32 slice as a single-slice
// NIfTI-1 volume, the application/x-nifti body of /v1/segment.
func encodeNIfTISlice(in []float32, size int) ([]byte, error) {
	v := nifti.NewVolume(size, size, 1, nifti.DTFloat32)
	copy(v.Data, in)
	var buf bytes.Buffer
	if err := nifti.Write(&buf, v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// probeNIfTI times reading and writing body, the workload's own NIfTI
// payload: the CT volume of volume_study, one slice of the slice workloads.
func probeNIfTI(wk *walk, body []byte) error {
	var vol *nifti.Volume
	if err := wk.sample("nifti.read_ms", func() error {
		var err error
		vol, err = nifti.Read(bytes.NewReader(body))
		return err
	}); err != nil {
		return err
	}
	if err := wk.sample("nifti.write_ms", func() error { return nifti.Write(io.Discard, vol) }); err != nil {
		return err
	}
	if ms := wk.get("nifti.read_ms"); ms > 0 {
		wk.set("nifti.read_mb_per_s", float64(len(body))/(1<<20)/(ms/1e3))
	}
	allocs, _ := allocsPer(5, func() { nifti.Read(bytes.NewReader(body)) })
	wk.set("nifti.read_allocs", allocs)
	return nil
}
