package binio

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
)

// fields is one value of every type the codec carries.
type fields struct {
	u8     uint8
	u32    uint32
	i32    int32
	i64    int64
	f32    float32
	str    string
	empty  string
	int8s  []int8
	int32s []int32
	floats []float32
	none   []float32
}

var nan = math.Float32frombits(0x7fc00001)

func sample() fields {
	// The slices cross the 64 KiB chunk boundary of their element size.
	f := fields{
		u8: 0xfe, u32: 0xdeadbeef, i32: -5, i64: -1 << 40, f32: -1.5,
		str:    "héllo",
		int8s:  make([]int8, 2*chunk+3),
		int32s: make([]int32, chunk/4+5),
		floats: make([]float32, 2*chunk/4+1),
	}
	for i := range f.int8s {
		f.int8s[i] = int8(i * 7)
	}
	for i := range f.int32s {
		f.int32s[i] = int32(i) * -65537
	}
	f.int32s[0], f.int32s[1] = math.MinInt32, math.MaxInt32
	for i := range f.floats {
		f.floats[i] = float32(i) / 3
	}
	f.floats[0], f.floats[1] = nan, float32(math.Inf(-1))
	return f
}

func (f fields) write(w *Writer) {
	w.Magic("TEST")
	w.U8(f.u8)
	w.U32(f.u32)
	w.I32(f.i32)
	w.I64(f.i64)
	w.F32(f.f32)
	w.String(f.str)
	w.String(f.empty)
	w.Int8s(f.int8s)
	w.Int32s(f.int32s)
	w.Float32s(f.floats)
	w.Float32s(f.none)
}

func read(r *Reader) fields {
	var f fields
	r.Magic("TEST")
	f.u8 = r.U8()
	f.u32 = r.U32()
	f.i32 = r.I32()
	f.i64 = r.I64()
	f.f32 = r.F32()
	f.str = r.String("str", 16)
	f.empty = r.String("empty", 16)
	f.int8s = r.Int8s("int8s", 1<<20)
	f.int32s = r.Int32s("int32s", 1<<20)
	f.floats = r.Float32s("floats", 1<<20)
	f.none = r.Float32s("none", 1<<20)
	return f
}

func encode(t *testing.T, f fields) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	f.write(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTrip(t *testing.T) {
	want := sample()
	r := NewReader(bytes.NewReader(encode(t, want)))
	got := read(r)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if got.u8 != want.u8 || got.u32 != want.u32 || got.i32 != want.i32 || got.i64 != want.i64 ||
		got.f32 != want.f32 || got.str != want.str || got.empty != "" || got.none != nil {
		t.Fatalf("scalars or strings: got %+v", got)
	}
	if !slices.Equal(got.int8s, want.int8s) || !slices.Equal(got.int32s, want.int32s) {
		t.Fatal("integer slices differ")
	}
	if len(got.floats) != len(want.floats) {
		t.Fatalf("%d floats, want %d", len(got.floats), len(want.floats))
	}
	for i, v := range want.floats {
		if math.Float32bits(got.floats[i]) != math.Float32bits(v) {
			t.Fatalf("float %d: bits %#x, want %#x", i, math.Float32bits(got.floats[i]), math.Float32bits(v))
		}
	}
	if _, err := r.r.ReadByte(); err == nil {
		t.Fatal("bytes left after the last field")
	}
}

// TestLayout pins the encoding itself: little-endian, u32 counts, no padding.
func TestLayout(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Magic("AB")
	w.U8(7)
	w.U32(0x01020304)
	w.I32(-2)
	w.I64(0x0102030405060708)
	w.F32(1)
	w.String("hi")
	w.Int8s([]int8{-1, 2})
	w.Int32s([]int32{-1})
	w.Float32s([]float32{-2})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := []byte{
		'A', 'B', 7, 4, 3, 2, 1, 0xfe, 0xff, 0xff, 0xff,
		8, 7, 6, 5, 4, 3, 2, 1, 0, 0, 0x80, 0x3f,
		2, 0, 0, 0, 'h', 'i',
		2, 0, 0, 0, 0xff, 2,
		1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff,
		1, 0, 0, 0, 0, 0, 0, 0xc0,
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("bytes\n% x\nwant\n% x", buf.Bytes(), want)
	}
}

// TestTruncatedEverywhere cuts a stream of every field type at every byte
// offset: each cut must end in an error, never a panic.
func TestTruncatedEverywhere(t *testing.T) {
	f := fields{u8: 1, u32: 2, i32: -3, i64: 4, f32: 5, str: "six", int8s: []int8{7, -7}, int32s: []int32{8}, floats: []float32{9, 10}}
	b := encode(t, f)
	for cut := 0; cut < len(b); cut++ {
		r := NewReader(bytes.NewReader(b[:cut]))
		read(r)
		if r.Err() == nil {
			t.Fatalf("stream cut at byte %d of %d read without error", cut, len(b))
		}
	}
}

func TestCountOverLimit(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.String("abcd")
	w.Float32s([]float32{1, 2, 3})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	wantErr := func(r *Reader, want string) {
		t.Helper()
		if r.Err() == nil || !strings.Contains(r.Err().Error(), want) {
			t.Fatalf("error %v, want %q", r.Err(), want)
		}
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	if s := r.String("label", 3); s != "" {
		t.Fatalf("over-limit string read as %q", s)
	}
	wantErr(r, "label: count 4 over limit 3")
	r = NewReader(bytes.NewReader(buf.Bytes()))
	r.String("label", 4)
	if f := r.Float32s("payload", 2); f != nil {
		t.Fatalf("over-limit slice read as %v", f)
	}
	wantErr(r, "payload: count 3 over limit 2")
	r = NewReader(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff}))
	if n := r.Count("nodes", 1<<20); n != 0 {
		t.Fatalf("over-limit count read as %d", n)
	}
	wantErr(r, "nodes: count 4294967295 over limit 1048576")
}

// TestStickyError checks that after the first error every call is a no-op
// returning zero values, even while bytes remain to be read.
func TestStickyError(t *testing.T) {
	b := encode(t, sample())
	r := NewReader(bytes.NewReader(b))
	r.Magic("NOPE")
	first := r.Err()
	if first == nil {
		t.Fatal("bad magic accepted")
	}
	if got := read(r); got.u8 != 0 || got.u32 != 0 || got.i32 != 0 || got.i64 != 0 || got.f32 != 0 ||
		got.str != "" || got.int8s != nil || got.int32s != nil || got.floats != nil {
		t.Fatalf("reads after an error returned %+v", got)
	}
	if r.Count("n", 1<<30) != 0 || r.Err() != first {
		t.Fatalf("error changed to %v after the first %v", r.Err(), first)
	}

	fail := errors.New("disk full")
	w := NewWriter(failingWriter{fail})
	sample().write(w)
	if err := w.Flush(); !errors.Is(err, fail) {
		t.Fatalf("Flush = %v, want the writer's first error", err)
	}
}

type failingWriter struct{ err error }

func (f failingWriter) Write([]byte) (int, error) { return 0, f.err }
