// Package tensor implements dense float32 tensors in NCHW or NCDHW layout
// together with the linear-algebra and convolution-lowering kernels (matmul,
// im2col, col2im, pooling) that the neural-network layers in internal/nn are
// built on. All heavy kernels are parallelized with internal/par.
package tensor

import (
	"fmt"
	"math"

	"seneca/internal/par"
)

// Tensor is a dense float32 array with an explicit shape. Data is stored in
// row-major order with the last dimension contiguous; for feature maps the
// convention throughout the module is NCHW, and NCDHW for volumes.
type Tensor struct {
	Shape []int
	Data  []float32
}

// New allocates a zero tensor with the given shape.
func New(shape ...int) *Tensor {
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, Numel(shape))}
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); its length must equal the shape's element count.
func FromSlice(data []float32, shape ...int) *Tensor {
	if len(data) != Numel(shape) {
		panic(fmt.Sprintf("tensor: FromSlice length %d does not match shape %v (%d elements)", len(data), shape, Numel(shape)))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: data}
}

// Numel returns the number of elements implied by shape.
func Numel(shape []int) int {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension in shape %v", shape))
		}
		n *= d
	}
	return n
}

// Len returns the number of elements in t.
func (t *Tensor) Len() int { return len(t.Data) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.Shape) }

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a view of t with a new shape sharing the same backing
// data. The element count must match.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	if Numel(shape) != len(t.Data) {
		panic(fmt.Sprintf("tensor: cannot reshape %v (%d elements) to %v", t.Shape, len(t.Data), shape))
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: t.Data}
}

// SameShape reports whether t and u have identical shapes.
func (t *Tensor) SameShape(u *Tensor) bool {
	if len(t.Shape) != len(u.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != u.Shape[i] {
			return false
		}
	}
	return true
}

// Zero sets all elements of t to zero.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element of t to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Apply replaces every element x with f(x), in parallel.
func (t *Tensor) Apply(f func(float32) float32) {
	par.ForChunked(len(t.Data), func(lo, hi int) {
		d := t.Data
		for i := lo; i < hi; i++ {
			d[i] = f(d[i])
		}
	})
}

// AddInPlace computes t += u element-wise. Shapes must match.
func (t *Tensor) AddInPlace(u *Tensor) {
	if !t.SameShape(u) {
		panic(fmt.Sprintf("tensor: AddInPlace shape mismatch %v vs %v", t.Shape, u.Shape))
	}
	par.ForChunked(len(t.Data), func(lo, hi int) {
		a, b := t.Data, u.Data
		for i := lo; i < hi; i++ {
			a[i] += b[i]
		}
	})
}

// Scale multiplies every element by s.
func (t *Tensor) Scale(s float32) {
	par.ForChunked(len(t.Data), func(lo, hi int) {
		d := t.Data
		for i := lo; i < hi; i++ {
			d[i] *= s
		}
	})
}

// Sum returns the sum of all elements, accumulated in float64.
func (t *Tensor) Sum() float64 {
	return par.ReduceSum(len(t.Data), func(i int) float64 { return float64(t.Data[i]) })
}

// MaxAbs returns the maximum absolute value in t (0 for empty tensors).
func (t *Tensor) MaxAbs() float32 {
	var m float32
	for _, v := range t.Data {
		a := v
		if a < 0 {
			a = -a
		}
		if a > m {
			m = a
		}
	}
	return m
}

// L2Norm returns the Euclidean norm of t.
func (t *Tensor) L2Norm() float64 {
	s := par.ReduceSum(len(t.Data), func(i int) float64 {
		v := float64(t.Data[i])
		return v * v
	})
	return math.Sqrt(s)
}

// String renders a compact description useful in error messages and logs.
func (t *Tensor) String() string {
	return fmt.Sprintf("Tensor%v", t.Shape)
}
