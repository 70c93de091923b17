package nifti

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// validNii serializes a small volume to bytes for the seed corpus.
func validNii(t testing.TB, v *Volume) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzRead feeds arbitrary bytes to the NIfTI-1 parser. The contract under
// test: Read returns (volume, nil) or (nil, error) — it never panics, and
// on success the decoded geometry is internally consistent. Memory stays
// bounded even when the header declares absurd dimensions.
func FuzzRead(f *testing.F) {
	// Well-formed volumes in each supported datatype.
	small := NewVolume(3, 2, 2, DTInt16)
	for i := range small.Data {
		small.Data[i] = float32(i*37 - 1000)
	}
	f.Add(validNii(f, small))
	f.Add(validNii(f, NewVolume(1, 1, 1, DTUint8)))
	fv := NewVolume(2, 2, 1, DTFloat32)
	fv.Data = []float32{-1, 0.5, 3.25, 1e9}
	f.Add(validNii(f, fv))

	// Mutants that historically hit distinct error paths: truncated body,
	// huge declared dims, NaN vox_offset, wrong magic.
	base := validNii(f, small)
	f.Add(base[:len(base)-5])
	huge := append([]byte(nil), base...)
	binary.LittleEndian.PutUint16(huge[42:], 0x7fff) // dim[1] = 32767
	binary.LittleEndian.PutUint16(huge[44:], 0x7fff) // dim[2]
	binary.LittleEndian.PutUint16(huge[46:], 0x7fff) // dim[3]
	f.Add(huge)
	nanOff := append([]byte(nil), base...)
	binary.LittleEndian.PutUint32(nanOff[108:], 0x7fc00000) // vox_offset = NaN
	f.Add(nanOff)
	badMagic := append([]byte(nil), base...)
	copy(badMagic[344:], "ni1\x00")
	f.Add(badMagic)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := Read(bytes.NewReader(data))
		if err != nil {
			if v != nil {
				t.Fatal("Read returned both a volume and an error")
			}
			return
		}
		if v.Nx <= 0 || v.Ny <= 0 || v.Nz <= 0 {
			t.Fatalf("accepted non-positive dims %d×%d×%d", v.Nx, v.Ny, v.Nz)
		}
		if got, want := len(v.Data), v.Nx*v.Ny*v.Nz; got != want {
			t.Fatalf("data length %d != %d×%d×%d", got, v.Nx, v.Ny, v.Nz)
		}
		if int64(v.Nx)*int64(v.Ny)*int64(v.Nz) > MaxVoxels {
			t.Fatalf("accepted volume above MaxVoxels: %d×%d×%d", v.Nx, v.Ny, v.Nz)
		}
		// Slicing the last plane of the accepted geometry must be in bounds.
		_ = v.Slice(v.Nz - 1)
	})
}

// FuzzRoundTrip checks Write∘Read is lossless for every volume the fuzzer
// can construct from a decoded input.
func FuzzRoundTrip(f *testing.F) {
	small := NewVolume(2, 3, 2, DTFloat32)
	for i := range small.Data {
		small.Data[i] = float32(i) * 0.5
	}
	f.Add(validNii(f, small))

	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := Read(bytes.NewReader(data))
		if err != nil {
			t.Skip()
		}
		var buf bytes.Buffer
		if err := Write(&buf, v); err != nil {
			t.Fatalf("re-encoding accepted volume: %v", err)
		}
		v2, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-decoding own output: %v", err)
		}
		if v2.Nx != v.Nx || v2.Ny != v.Ny || v2.Nz != v.Nz || v2.Datatype != v.Datatype {
			t.Fatalf("geometry changed: %d×%d×%d/%d → %d×%d×%d/%d",
				v.Nx, v.Ny, v.Nz, v.Datatype, v2.Nx, v2.Ny, v2.Nz, v2.Datatype)
		}
	})
}
