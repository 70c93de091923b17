// Package nifti implements a minimal reader and writer for the NIfTI-1
// neuro-imaging container format — the format the CT-ORG dataset ships its
// CT volumes and ground-truth label volumes in (paper Section III-A). Only
// the features those volumes need are supported: single-file .nii images,
// 3D dimensions, int16/float32/uint8 data, little-endian, and the
// scl_slope/scl_inter intensity scaling used for Hounsfield units.
package nifti

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"seneca/internal/fault"
)

// Datatype codes from the NIfTI-1 standard (the subset we support).
const (
	DTUint8   int16 = 2
	DTInt16   int16 = 4
	DTFloat32 int16 = 16
)

const (
	headerSize = 348
	voxOffset  = 352 // header + 4-byte extension flag
	magic      = "n+1\x00"
)

// MaxVoxels caps the volume size Read accepts. A full-resolution CT-ORG
// volume is 512×512×~1000 ≈ 2.6e8 voxels; the cap leaves headroom above
// that while refusing headers that declare hundreds of gigabytes (the
// three int16 dims can claim up to 32767³).
const MaxVoxels = 1 << 28

// readChunk is the voxel granularity Read streams at, so a header that
// declares a huge volume over a truncated body fails after reading the
// bytes actually present instead of allocating the declared size up front.
const readChunk = 1 << 18

// Volume is a 3D image with float32 voxels (after scl scaling) plus the
// storage datatype used on disk.
type Volume struct {
	// Nx, Ny, Nz are the volume dimensions: Nx columns, Ny rows, Nz slices.
	Nx, Ny, Nz int
	// Data holds voxels in x-fastest order: Data[(z*Ny+y)*Nx+x].
	Data []float32
	// Datatype is the on-disk element type (DTUint8, DTInt16 or DTFloat32).
	Datatype int16
	// PixDim are the voxel physical dimensions in mm (dx, dy, dz).
	PixDim [3]float32
}

// NewVolume allocates a zero volume with the given dimensions and datatype.
func NewVolume(nx, ny, nz int, datatype int16) *Volume {
	return &Volume{
		Nx: nx, Ny: ny, Nz: nz,
		Data:     make([]float32, nx*ny*nz),
		Datatype: datatype,
		PixDim:   [3]float32{1, 1, 1},
	}
}

// Slice returns a copy of axial slice z as a row-major Ny×Nx image.
func (v *Volume) Slice(z int) []float32 {
	out := make([]float32, v.Nx*v.Ny)
	copy(out, v.Data[z*v.Nx*v.Ny:(z+1)*v.Nx*v.Ny])
	return out
}

// header mirrors the fixed NIfTI-1 header layout.
type header struct {
	SizeofHdr    int32
	DataType     [10]byte
	DBName       [18]byte
	Extents      int32
	SessionError int16
	Regular      byte
	DimInfo      byte
	Dim          [8]int16
	IntentP1     float32
	IntentP2     float32
	IntentP3     float32
	IntentCode   int16
	Datatype     int16
	Bitpix       int16
	SliceStart   int16
	Pixdim       [8]float32
	VoxOffset    float32
	SclSlope     float32
	SclInter     float32
	SliceEnd     int16
	SliceCode    byte
	XyztUnits    byte
	CalMax       float32
	CalMin       float32
	SliceDur     float32
	Toffset      float32
	Glmax        int32
	Glmin        int32
	Descrip      [80]byte
	AuxFile      [24]byte
	QformCode    int16
	SformCode    int16
	QuaternB     float32
	QuaternC     float32
	QuaternD     float32
	QoffsetX     float32
	QoffsetY     float32
	QoffsetZ     float32
	SrowX        [4]float32
	SrowY        [4]float32
	SrowZ        [4]float32
	IntentName   [16]byte
	Magic        [4]byte
}

// Write serializes the volume as a single-file NIfTI-1 image.
func Write(w io.Writer, v *Volume) error {
	if err := writeHeader(w, v.Nx, v.Ny, v.Nz, v.Datatype, v.PixDim); err != nil {
		return err
	}
	return writeVoxels(w, v)
}

// WriteLabels serializes a uint8 label volume (labels[(z*ny+y)*nx+x], one
// class index per voxel) straight from its bytes. The output is what Write
// produces for a DTUint8 Volume holding the same labels, without widening
// them to float32 and back.
func WriteLabels(w io.Writer, nx, ny, nz int, pixDim [3]float32, labels []uint8) error {
	if len(labels) != nx*ny*nz {
		return fmt.Errorf("nifti: %d labels for a %d×%d×%d volume", len(labels), nx, ny, nz)
	}
	if err := writeHeader(w, nx, ny, nz, DTUint8, pixDim); err != nil {
		return err
	}
	_, err := w.Write(labels)
	return err
}

// writeHeader emits the 348-byte header and the empty extension flag, which
// leaves w at vox_offset.
func writeHeader(w io.Writer, nx, ny, nz int, datatype int16, pixDim [3]float32) error {
	size, err := elemSize(datatype)
	if err != nil {
		return err
	}
	var h header
	h.SizeofHdr = headerSize
	h.Regular = 'r'
	h.Dim = [8]int16{3, int16(nx), int16(ny), int16(nz), 1, 1, 1, 1}
	h.Datatype = datatype
	h.Bitpix = int16(8 * size)
	h.Pixdim = [8]float32{1, pixDim[0], pixDim[1], pixDim[2], 1, 1, 1, 1}
	h.VoxOffset = voxOffset
	h.SclSlope = 1
	h.XyztUnits = 2 // millimeters
	copy(h.Descrip[:], "seneca-go phantom volume")
	copy(h.Magic[:], magic)
	if err := binary.Write(w, binary.LittleEndian, &h); err != nil {
		return fmt.Errorf("nifti: writing header: %w", err)
	}
	// Extension flag: none.
	if _, err := w.Write(make([]byte, voxOffset-headerSize)); err != nil {
		return fmt.Errorf("nifti: writing extension flag: %w", err)
	}
	return nil
}

// writeVoxels encodes the voxels through one readChunk-sized buffer, so
// writing a volume costs a fixed scratch rather than a second copy of it.
func writeVoxels(w io.Writer, v *Volume) error {
	elem, _ := elemSize(v.Datatype) // writeHeader has checked it
	buf := make([]byte, min(len(v.Data), readChunk)*elem)
	for data := v.Data; len(data) > 0; {
		chunk := data[:min(len(data), readChunk)]
		data = data[len(chunk):]
		b := buf[:len(chunk)*elem]
		switch v.Datatype {
		case DTUint8:
			for i, f := range chunk {
				b[i] = uint8(clamp(f, 0, 255))
			}
		case DTInt16:
			for i, f := range chunk {
				binary.LittleEndian.PutUint16(b[2*i:], uint16(int16(clamp(f, -32768, 32767))))
			}
		case DTFloat32:
			for i, f := range chunk {
				binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(f))
			}
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// elemSize is the on-disk size in bytes of one voxel of datatype, or an
// error for a datatype this package does not support.
func elemSize(datatype int16) (int, error) {
	switch datatype {
	case DTUint8:
		return 1, nil
	case DTInt16:
		return 2, nil
	case DTFloat32:
		return 4, nil
	}
	return 0, fmt.Errorf("nifti: unsupported datatype %d", datatype)
}

func clamp(f, lo, hi float32) float32 {
	if f < lo {
		return lo
	}
	if f > hi {
		return hi
	}
	return f
}

// Read parses a single-file NIfTI-1 image written by Write (or any
// little-endian .nii with a supported datatype). Gzip-compressed input
// (.nii.gz) is detected by its magic bytes and decompressed transparently.
// Malformed input yields an error, never a panic, and memory use is bounded
// by the bytes actually present in r (plus the MaxVoxels cap), not by what
// the header declares.
func Read(r io.Reader) (*Volume, error) {
	// Chaos seam: a decode failure (torn upload, bad media) for resilience
	// tests of the tiers that parse untrusted volumes.
	if err := fault.Check("nifti.read"); err != nil {
		return nil, err
	}
	left := remaining(r)
	br := bufio.NewReader(r)
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("nifti: opening gzip stream: %w", err)
		}
		defer gz.Close()
		return readRaw(gz, -1)
	}
	return readRaw(br, left)
}

// remaining returns how many bytes r can still supply when r can say — an
// *os.File from its size and offset, a bytes or strings reader from Len —
// and -1 otherwise.
func remaining(r io.Reader) int64 {
	switch r := r.(type) {
	case interface{ Len() int }:
		return int64(r.Len())
	case *os.File:
		fi, err := r.Stat()
		off, serr := r.Seek(0, io.SeekCurrent)
		if err == nil && serr == nil && fi.Mode().IsRegular() {
			return fi.Size() - off
		}
	}
	return -1
}

// readRaw decodes an uncompressed NIfTI-1 stream of left bytes (-1 when
// unknown).
func readRaw(r io.Reader, left int64) (*Volume, error) {
	var h header
	if err := binary.Read(r, binary.LittleEndian, &h); err != nil {
		return nil, fmt.Errorf("nifti: reading header: %w", err)
	}
	if h.SizeofHdr != headerSize {
		return nil, fmt.Errorf("nifti: bad header size %d (big-endian or not NIfTI-1?)", h.SizeofHdr)
	}
	if string(h.Magic[:]) != magic {
		return nil, fmt.Errorf("nifti: bad magic %q (two-file .hdr/.img not supported)", h.Magic)
	}
	if h.Dim[0] < 3 {
		return nil, fmt.Errorf("nifti: %d-dimensional image, want 3", h.Dim[0])
	}
	nx, ny, nz := int(h.Dim[1]), int(h.Dim[2]), int(h.Dim[3])
	if nx <= 0 || ny <= 0 || nz <= 0 {
		return nil, fmt.Errorf("nifti: invalid dimensions %d×%d×%d", nx, ny, nz)
	}
	total := int64(nx) * int64(ny) * int64(nz)
	if total > MaxVoxels {
		return nil, fmt.Errorf("nifti: volume %d×%d×%d exceeds %d voxels", nx, ny, nz, int64(MaxVoxels))
	}
	if _, err := elemSize(h.Datatype); err != nil {
		return nil, err
	}
	// Skip to voxel data. vox_offset is stored as float32; reject
	// non-finite or absurd values before converting to an integer (the
	// float→int conversion of NaN/±Inf is implementation-defined).
	off := float64(h.VoxOffset)
	if math.IsNaN(off) || off < headerSize || off > 1<<30 {
		return nil, fmt.Errorf("nifti: bad vox_offset %v", h.VoxOffset)
	}
	if _, err := io.CopyN(io.Discard, r, int64(off)-headerSize); err != nil {
		return nil, fmt.Errorf("nifti: skipping to voxels: %w", err)
	}
	slope, inter := h.SclSlope, h.SclInter
	if slope == 0 {
		slope = 1
	}
	if left >= 0 {
		left = max(left-int64(off), 0)
	}
	data, err := readVoxels(r, h.Datatype, total, left, slope, inter)
	if err != nil {
		return nil, err
	}
	return &Volume{
		Nx: nx, Ny: ny, Nz: nz,
		Data:     data,
		Datatype: h.Datatype,
		PixDim:   [3]float32{h.Pixdim[1], h.Pixdim[2], h.Pixdim[3]},
	}, nil
}

// readVoxels streams total voxels of the given datatype in steps of at most
// readChunk, so truncated input fails with an error after consuming only
// the bytes present, and decodes each step into its place by index. When
// left, the bytes r still holds, is known (-1 when not), the result is
// allocated once, for the voxels those bytes hold: a header that declares
// more than its body carries cannot raise it. Otherwise it starts at one
// chunk and doubles.
func readVoxels(r io.Reader, datatype int16, total, left int64, slope, inter float32) ([]float32, error) {
	elem, _ := elemSize(datatype) // readRaw has checked it
	size, chunk := min(total, readChunk), min(total, readChunk)
	if left >= 0 {
		size = min(total, left/int64(elem))
		chunk = max(min(chunk, size), 1)
	}
	data := make([]float32, 0, size)
	buf := make([]byte, chunk*int64(elem))
	for int64(len(data)) < total {
		n := int(min(total-int64(len(data)), chunk))
		b := buf[:n*elem]
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, fmt.Errorf("nifti: reading voxels: %w", err)
		}
		if len(data)+n > cap(data) {
			data = append(make([]float32, 0, min(total, int64(max(2*cap(data), len(data)+n)))), data...)
		}
		data = data[:len(data)+n]
		dst := data[len(data)-n:]
		switch datatype {
		case DTUint8:
			for i, v := range b {
				dst[i] = float32(v)*slope + inter
			}
		case DTInt16:
			for i := range dst {
				dst[i] = float32(int16(uint16(b[2*i])|uint16(b[2*i+1])<<8))*slope + inter
			}
		case DTFloat32:
			for i := range dst {
				dst[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*i:]))*slope + inter
			}
		}
	}
	return data, nil
}

// WriteGzip serializes the volume as a gzip-compressed single-file NIfTI-1
// image (the .nii.gz encoding CT-ORG distributes).
func WriteGzip(w io.Writer, v *Volume) error {
	gz := gzip.NewWriter(w)
	if err := Write(gz, v); err != nil {
		gz.Close()
		return err
	}
	return gz.Close()
}

// WriteFile writes the volume to path, gzip-compressing when the path ends
// in .gz (e.g. volume.nii.gz).
func WriteFile(path string, v *Volume) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	write := Write
	if strings.HasSuffix(path, ".gz") {
		write = WriteGzip
	}
	if err := write(f, v); err != nil {
		return err
	}
	return f.Close()
}

// ReadFile reads a volume from path.
func ReadFile(path string) (*Volume, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
