// Package binio is the one encoding of the workflow's two artifacts, the FP32
// training checkpoint and the compiled xmodel: little-endian scalars, and
// strings and slices as a u32 count, then the elements. Both sides keep the
// first error and make every later call a no-op. The Reader checks every
// count against its caller's limit and grows a slice only as bytes arrive.
package binio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
)

// chunk is the largest run of bytes moved through the scratch buffer at once.
const chunk = 1 << 16

var le = binary.LittleEndian

// Writer encodes fields onto a buffered stream.
type Writer struct {
	w   *bufio.Writer
	buf []byte
	err error
}

// NewWriter returns a Writer on w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w), buf: make([]byte, chunk)}
}

// Flush writes out what is buffered and returns the first error of any call.
func (w *Writer) Flush() error {
	if w.err == nil {
		w.err = w.w.Flush()
	}
	return w.err
}

func (w *Writer) write(b []byte) {
	if w.err == nil {
		_, w.err = w.w.Write(b)
	}
}

// Magic writes s as raw bytes, with no count.
func (w *Writer) Magic(s string) {
	if w.err == nil {
		_, w.err = w.w.WriteString(s)
	}
}

// U8 writes one byte.
func (w *Writer) U8(v uint8) { w.write(append(w.buf[:0], v)) }

// U32 writes a little-endian uint32.
func (w *Writer) U32(v uint32) { w.write(le.AppendUint32(w.buf[:0], v)) }

// I32 writes an int32 as its two's-complement uint32.
func (w *Writer) I32(v int32) { w.U32(uint32(v)) }

// I64 writes a little-endian int64.
func (w *Writer) I64(v int64) { w.write(le.AppendUint64(w.buf[:0], uint64(v))) }

// F32 writes a float32 as its IEEE-754 bits.
func (w *Writer) F32(v float32) { w.U32(math.Float32bits(v)) }

// String writes a u32 byte count, then the bytes.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.Magic(s)
}

// writeSlice writes a u32 count, then the elements, encoding them size bytes
// each a chunk at a time. encode is a plain function, not a closure, so the
// byte-order calls in its loop are inlined.
func writeSlice[T any](w *Writer, v []T, size int, encode func(b []byte, v []T)) {
	w.U32(uint32(len(v)))
	for len(v) > 0 && w.err == nil {
		c := min(len(v), chunk/size)
		encode(w.buf[:size*c], v[:c])
		w.write(w.buf[:size*c])
		v = v[c:]
	}
}

// Int8s writes a u32 count, then one byte per element.
func (w *Writer) Int8s(v []int8) { writeSlice(w, v, 1, putInt8s) }

// Int32s writes a u32 count, then four bytes per element.
func (w *Writer) Int32s(v []int32) { writeSlice(w, v, 4, putInt32s) }

// Float32s writes a u32 count, then each element's IEEE-754 bits.
func (w *Writer) Float32s(v []float32) { writeSlice(w, v, 4, putFloat32s) }

func putInt8s(b []byte, v []int8) {
	for i, x := range v {
		b[i] = byte(x)
	}
}

func putInt32s(b []byte, v []int32) {
	for i, x := range v {
		le.PutUint32(b[4*i:], uint32(x))
	}
}

func putFloat32s(b []byte, v []float32) {
	for i, x := range v {
		le.PutUint32(b[4*i:], math.Float32bits(x))
	}
}

// Reader decodes fields from a buffered stream.
type Reader struct {
	r   *bufio.Reader
	buf []byte
	err error
}

// NewReader returns a Reader on r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r), buf: make([]byte, chunk)}
}

// Err returns the first error of any call, or nil.
func (r *Reader) Err() error { return r.err }

// next reads the following n ≤ chunk bytes into the scratch buffer. A short
// read records an error naming field; after any error it gives n zero bytes.
func (r *Reader) next(field string, n int) []byte {
	b := r.buf[:n]
	if r.err == nil {
		if _, err := io.ReadFull(r.r, b); err != nil {
			r.err = fmt.Errorf("%s: %w", field, err)
		}
	}
	if r.err != nil {
		clear(b)
	}
	return b
}

// Magic reads len(want) raw bytes and fails unless they are want.
func (r *Reader) Magic(want string) {
	if b := r.next("magic", len(want)); r.err == nil && string(b) != want {
		r.err = fmt.Errorf("bad magic %q, want %q", b, want)
	}
}

// U8 reads one byte.
func (r *Reader) U8() uint8 { return r.next("byte", 1)[0] }

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 { return le.Uint32(r.next("u32", 4)) }

// I32 reads an int32 written by Writer.I32.
func (r *Reader) I32() int32 { return int32(r.U32()) }

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(le.Uint64(r.next("i64", 8))) }

// F32 reads a float32 from its IEEE-754 bits.
func (r *Reader) F32() float32 { return math.Float32frombits(r.U32()) }

// Count reads a u32 count and fails, naming field, if it is over limit.
func (r *Reader) Count(field string, limit int) int {
	n := r.U32() // 0 after an error
	if uint64(n) > uint64(limit) {
		r.err = fmt.Errorf("%s: count %d over limit %d", field, n, limit)
		return 0
	}
	return int(n)
}

// readSlice reads a count of at most limit, then that many elements of size
// bytes each, a chunk at a time; decode, a plain function like encode, appends
// one chunk's elements. The capacity doubles as chunks arrive until half the
// count, then takes all of it, so the allocations sum to under twice the
// count. Any error gives nil.
func readSlice[T any](r *Reader, field string, limit, size int, decode func(out []T, b []byte) []T) []T {
	n := r.Count(field, limit)
	var out []T
	for len(out) < n {
		b := r.next(field, size*min(n-len(out), chunk/size))
		if r.err != nil {
			return nil
		}
		want := max(len(out)+len(b)/size, 2*len(out))
		if 2*want > n { // the next doubling would pass the count
			want = n
		}
		out = decode(slices.Grow(out, want-len(out)), b)
	}
	return out
}

// String reads a string of at most limit bytes.
func (r *Reader) String(field string, limit int) string {
	return string(readSlice(r, field, limit, 1, func(out, b []byte) []byte { return append(out, b...) }))
}

// Int8s reads at most limit int8 elements.
func (r *Reader) Int8s(field string, limit int) []int8 {
	return readSlice(r, field, limit, 1, appendInt8s)
}

// Int32s reads at most limit int32 elements.
func (r *Reader) Int32s(field string, limit int) []int32 {
	return readSlice(r, field, limit, 4, appendInt32s)
}

// Float32s reads at most limit float32 elements.
func (r *Reader) Float32s(field string, limit int) []float32 {
	return readSlice(r, field, limit, 4, appendFloat32s)
}

func appendInt8s(out []int8, b []byte) []int8 {
	for _, x := range b {
		out = append(out, int8(x))
	}
	return out
}

func appendInt32s(out []int32, b []byte) []int32 {
	for i := 0; i < len(b); i += 4 {
		out = append(out, int32(le.Uint32(b[i:])))
	}
	return out
}

func appendFloat32s(out []float32, b []byte) []float32 {
	for i := 0; i < len(b); i += 4 {
		out = append(out, math.Float32frombits(le.Uint32(b[i:])))
	}
	return out
}
