package nifti

import (
	"bytes"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestRoundTripLabelVolume writes a uint8 label volume with non-unit voxel
// spacing — the shape every study-pipeline mask takes — and re-reads it:
// header fields, spacing, and every voxel must survive, through both the
// plain and the gzip encodings.
func TestRoundTripLabelVolume(t *testing.T) {
	v := NewVolume(7, 5, 4, DTUint8)
	rng := rand.New(rand.NewSource(3))
	for i := range v.Data {
		v.Data[i] = float32(rng.Intn(6)) // CT-ORG label range
	}
	v.PixDim = [3]float32{0.75, 0.75, 3.2}

	check := func(t *testing.T, got *Volume) {
		t.Helper()
		if got.Nx != 7 || got.Ny != 5 || got.Nz != 4 {
			t.Fatalf("dims %d×%d×%d, want 7×5×4", got.Nx, got.Ny, got.Nz)
		}
		if got.Datatype != DTUint8 {
			t.Fatalf("datatype %d, want %d", got.Datatype, DTUint8)
		}
		if got.PixDim != v.PixDim {
			t.Fatalf("pixdim %v, want %v", got.PixDim, v.PixDim)
		}
		for i := range v.Data {
			if got.Data[i] != v.Data[i] {
				t.Fatalf("voxel %d: %v, want %v", i, got.Data[i], v.Data[i])
			}
		}
	}

	t.Run("plain", func(t *testing.T) {
		var buf bytes.Buffer
		if err := Write(&buf, v); err != nil {
			t.Fatal(err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		check(t, got)
	})

	t.Run("gzip", func(t *testing.T) {
		var buf bytes.Buffer
		if err := WriteGzip(&buf, v); err != nil {
			t.Fatal(err)
		}
		// The gzip stream must actually be compressed, and Read must
		// detect it without being told.
		if b := buf.Bytes(); b[0] != 0x1f || b[1] != 0x8b {
			t.Fatalf("WriteGzip output lacks gzip magic: % x", b[:2])
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		check(t, got)
	})

	t.Run("gz-file", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "labels.nii.gz")
		if err := WriteFile(path, v); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if raw[0] != 0x1f || raw[1] != 0x8b {
			t.Fatal("WriteFile did not gzip a .gz path")
		}
		got, err := ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		check(t, got)
	})
}

func TestReadRejectsCorruptGzip(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte{0x1f, 0x8b, 0xff, 0x00, 0x01})); err == nil {
		t.Fatal("corrupt gzip stream accepted")
	}
}

func TestRoundTripFloat32(t *testing.T) {
	v := NewVolume(5, 4, 3, DTFloat32)
	rng := rand.New(rand.NewSource(1))
	for i := range v.Data {
		v.Data[i] = float32(rng.NormFloat64() * 100)
	}
	v.PixDim = [3]float32{0.8, 0.8, 2.5}
	var buf bytes.Buffer
	if err := Write(&buf, v); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Nx != 5 || got.Ny != 4 || got.Nz != 3 {
		t.Fatalf("dims %d×%d×%d", got.Nx, got.Ny, got.Nz)
	}
	if got.PixDim != v.PixDim {
		t.Fatalf("pixdim %v", got.PixDim)
	}
	for i := range v.Data {
		if got.Data[i] != v.Data[i] {
			t.Fatalf("voxel %d: %v vs %v", i, got.Data[i], v.Data[i])
		}
	}
}

func TestRoundTripInt16Clamps(t *testing.T) {
	v := NewVolume(2, 2, 1, DTInt16)
	v.Data = []float32{-40000, -1000.4, 1000.6, 40000}
	var buf bytes.Buffer
	if err := Write(&buf, v); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{-32768, -1000, 1000, 32767}
	for i := range want {
		if got.Data[i] != want[i] {
			t.Fatalf("voxel %d: %v, want %v", i, got.Data[i], want[i])
		}
	}
}

func TestRoundTripUint8(t *testing.T) {
	v := NewVolume(3, 3, 2, DTUint8)
	for i := range v.Data {
		v.Data[i] = float32(i % 6)
	}
	var buf bytes.Buffer
	if err := Write(&buf, v); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range v.Data {
		if got.Data[i] != v.Data[i] {
			t.Fatalf("voxel %d: %v vs %v", i, got.Data[i], v.Data[i])
		}
	}
}

func TestHeaderSizeIs348(t *testing.T) {
	v := NewVolume(1, 1, 1, DTUint8)
	var buf bytes.Buffer
	if err := Write(&buf, v); err != nil {
		t.Fatal(err)
	}
	// 348 header + 4 extension + 1 voxel.
	if buf.Len() != 353 {
		t.Fatalf("file size %d, want 353 (NIfTI-1 layout)", buf.Len())
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader(make([]byte, 400))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Read(bytes.NewReader([]byte("short"))); err == nil {
		t.Fatal("truncated input accepted")
	}
}

func TestUnsupportedDatatype(t *testing.T) {
	v := NewVolume(1, 1, 1, 99)
	var buf bytes.Buffer
	if err := Write(&buf, v); err == nil {
		t.Fatal("unsupported datatype accepted")
	}
}

func TestSliceAndAccessors(t *testing.T) {
	v := NewVolume(2, 2, 2, DTFloat32)
	v.Data[(1*2+1)*2+0] = 42 // (x, y, z) = (0, 1, 1)
	s := v.Slice(1)
	if len(s) != 4 || s[2] != 42 {
		t.Fatalf("Slice = %v", s)
	}
	// Slice returns a copy.
	s[0] = 9
	if v.Data[4] == 9 {
		t.Fatal("Slice must copy")
	}
}

func TestSclSlopeApplied(t *testing.T) {
	// Hand-craft a file with scl_slope=2, scl_inter=10.
	v := NewVolume(1, 1, 1, DTInt16)
	v.Data[0] = 5
	var buf bytes.Buffer
	if err := Write(&buf, v); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// scl_slope at offset 112, scl_inter at 116 (NIfTI-1 layout).
	putF32 := func(off int, f float32) {
		bits := uint32(0)
		if f == 2 {
			bits = 0x40000000
		} else if f == 10 {
			bits = 0x41200000
		}
		raw[off] = byte(bits)
		raw[off+1] = byte(bits >> 8)
		raw[off+2] = byte(bits >> 16)
		raw[off+3] = byte(bits >> 24)
	}
	putF32(112, 2)
	putF32(116, 10)
	got, err := Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if got.Data[0] != 20 { // 5*2 + 10
		t.Fatalf("scaled voxel %v, want 20", got.Data[0])
	}
}

// TestReadScratchScalesWithVolume pins Read's allocation to the volume's
// own size: a 16×16×1 slice (1 KiB of voxels) must not pay for the 1 MiB
// chunk buffer a whole CT volume streams through.
func TestReadScratchScalesWithVolume(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, NewVolume(16, 16, 1, DTFloat32)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	read := func() {
		if _, err := Read(bytes.NewReader(raw)); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, read)
	runtime.ReadMemStats(&after)
	// AllocsPerRun makes one warm-up call on top of the measured runs.
	perCall := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
	t.Logf("Read(16×16×1 float32): %.0f allocs, %d bytes per call", allocs, perCall)
	if perCall > 16<<10 {
		t.Fatalf("Read allocates %d bytes for a 1 KiB slice, want under 16 KiB", perCall)
	}
	if allocs > 16 {
		t.Fatalf("Read makes %.0f allocations for a 1 KiB slice, want at most 16", allocs)
	}
}

// TestWriteLabelsMatchesWrite pins the label writer to the bytes Write emits
// for the same labels held as a float32 DTUint8 volume — the study tier
// serves and resumes from those files, and its clients compare them byte
// for byte.
func TestWriteLabelsMatchesWrite(t *testing.T) {
	const nx, ny, nz = 7, 5, 3
	labels := make([]uint8, nx*ny*nz)
	v := NewVolume(nx, ny, nz, DTUint8)
	v.PixDim = [3]float32{0.8, 0.9, 2.5}
	for i := range labels {
		labels[i] = uint8(i * 37)
		v.Data[i] = float32(labels[i])
	}
	var want, got bytes.Buffer
	if err := Write(&want, v); err != nil {
		t.Fatal(err)
	}
	if err := WriteLabels(&got, nx, ny, nz, v.PixDim, labels); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("WriteLabels and Write disagree on the same label volume")
	}
	if err := WriteLabels(io.Discard, nx, ny, nz, v.PixDim, labels[1:]); err == nil {
		t.Fatal("a label slice of the wrong length must be refused")
	}
}

// TestRoundTripSpansChunks round-trips volumes longer than two streaming
// chunks with a ragged tail, so both the chunked encode and the
// grow-then-index decode cross chunk boundaries for every datatype.
func TestRoundTripSpansChunks(t *testing.T) {
	nx, ny, nz := 1031, 127, 5 // 654 685 voxels = 2 chunks + 130 397
	if nx*ny*nz <= 2*readChunk || nx*ny*nz%readChunk == 0 {
		t.Fatalf("volume of %d voxels does not straddle chunks of %d", nx*ny*nz, readChunk)
	}
	for _, dt := range []int16{DTUint8, DTInt16, DTFloat32} {
		v := NewVolume(nx, ny, nz, dt)
		for i := range v.Data {
			v.Data[i] = float32(i % 251)
		}
		var buf bytes.Buffer
		if err := Write(&buf, v); err != nil {
			t.Fatal(err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatalf("datatype %d: %v", dt, err)
		}
		if len(got.Data) != len(v.Data) {
			t.Fatalf("datatype %d: %d voxels back, wrote %d", dt, len(got.Data), len(v.Data))
		}
		for i := range v.Data {
			if got.Data[i] != v.Data[i] {
				t.Fatalf("datatype %d: voxel %d = %v, wrote %v", dt, i, got.Data[i], v.Data[i])
			}
		}
	}
}
