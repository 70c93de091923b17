package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomTensor(rng *rand.Rand, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64())
	}
	return t
}

func TestNewAndIndexing(t *testing.T) {
	x := New(2, 3, 4)
	if x.Len() != 24 {
		t.Fatalf("Len = %d, want 24", x.Len())
	}
	if x.Rank() != 3 || len(x.Data) != 24 {
		t.Fatalf("rank %d over %d elements, want 3 over 24", x.Rank(), len(x.Data))
	}
}

func TestReshapeSharesData(t *testing.T) {
	x := New(2, 6)
	y := x.Reshape(3, 4)
	y.Data[0] = 42
	if x.Data[0] != 42 {
		t.Fatal("Reshape must share backing data")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reshape with wrong element count must panic")
		}
	}()
	x.Reshape(5, 5)
}

func TestCloneIndependent(t *testing.T) {
	x := New(4)
	x.Fill(1)
	y := x.Clone()
	y.Data[0] = 9
	if x.Data[0] != 1 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4}, 4)
	b := FromSlice([]float32{10, 20, 30, 40}, 4)
	a.AddInPlace(b)
	want := []float32{11, 22, 33, 44}
	for i := range want {
		if a.Data[i] != want[i] {
			t.Fatalf("AddInPlace[%d] = %v, want %v", i, a.Data[i], want[i])
		}
	}
	a.Scale(2)
	for i, w := range []float32{22, 44, 66, 88} {
		if a.Data[i] != w {
			t.Fatalf("Scale[%d] = %v, want %v", i, a.Data[i], w)
		}
	}
}

func TestReductions(t *testing.T) {
	x := FromSlice([]float32{-3, 1, 2}, 3)
	if got := x.Sum(); got != 0 {
		t.Fatalf("Sum = %v, want 0", got)
	}
	if got := x.MaxAbs(); got != 3 {
		t.Fatalf("MaxAbs = %v, want 3", got)
	}
	if got := x.L2Norm(); math.Abs(got-math.Sqrt(14)) > 1e-6 {
		t.Fatalf("L2Norm = %v", got)
	}
}

func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += float64(a.Data[i*k+p]) * float64(b.Data[p*n+j])
			}
			c.Data[i*n+j] = float32(s)
		}
	}
	return c
}

func tensorsClose(t *testing.T, got, want *Tensor, tol float64) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("shape %v vs %v", got.Shape, want.Shape)
	}
	for i := range got.Data {
		d := math.Abs(float64(got.Data[i] - want.Data[i]))
		scale := math.Max(1, math.Abs(float64(want.Data[i])))
		if d > tol*scale {
			t.Fatalf("element %d: got %v want %v (diff %v)", i, got.Data[i], want.Data[i], d)
		}
	}
}

func TestMatMulAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {7, 5, 9}, {16, 32, 8}} {
		a := randomTensor(rng, dims[0], dims[1])
		b := randomTensor(rng, dims[1], dims[2])
		tensorsClose(t, MatMul(a, b), naiveMatMul(a, b), 1e-4)
	}
}

func TestMatMulATAndBT(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// C = Aᵀ·B where A is k×m.
	a := randomTensor(rng, 6, 4)
	b := randomTensor(rng, 6, 5)
	c := New(4, 5)
	MatMulATInto(c, a, b)
	at := New(4, 6)
	for i := 0; i < 6; i++ {
		for j := 0; j < 4; j++ {
			at.Data[j*6+i] = a.Data[i*4+j]
		}
	}
	tensorsClose(t, c, naiveMatMul(at, b), 1e-4)

	// C = A·Bᵀ where B is n×k.
	a2 := randomTensor(rng, 3, 7)
	b2 := randomTensor(rng, 5, 7)
	c2 := New(3, 5)
	MatMulBTInto(c2, a2, b2)
	bt := New(7, 5)
	for i := 0; i < 5; i++ {
		for j := 0; j < 7; j++ {
			bt.Data[j*5+i] = b2.Data[i*7+j]
		}
	}
	tensorsClose(t, c2, naiveMatMul(a2, bt), 1e-4)
}

// naiveConv is the direct convolution reference used to validate the
// im2col+matmul path.
func naiveConv(x *Tensor, w *Tensor, stride, pad int) *Tensor {
	cin, h, wd := x.Shape[0], x.Shape[1], x.Shape[2]
	cout, k := w.Shape[0], w.Shape[2]
	oh := ConvOutSize(h, k, stride, pad)
	ow := ConvOutSize(wd, k, stride, pad)
	out := New(cout, oh, ow)
	for oc := 0; oc < cout; oc++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				var s float64
				for ic := 0; ic < cin; ic++ {
					for ky := 0; ky < k; ky++ {
						for kx := 0; kx < k; kx++ {
							iy := oy*stride - pad + ky
							ix := ox*stride - pad + kx
							if iy < 0 || iy >= h || ix < 0 || ix >= wd {
								continue
							}
							s += float64(x.Data[(ic*h+iy)*wd+ix]) * float64(w.Data[((oc*cin+ic)*k+ky)*k+kx])
						}
					}
				}
				out.Data[(oc*oh+oy)*ow+ox] = float32(s)
			}
		}
	}
	return out
}

func TestIm2ColMatMulEqualsDirectConv(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct{ c, h, w, cout, k, stride, pad int }{
		{1, 8, 8, 4, 3, 1, 1},
		{3, 7, 9, 2, 3, 1, 1},
		{2, 8, 8, 3, 3, 2, 1},
		{4, 6, 6, 5, 1, 1, 0},
	} {
		x := randomTensor(rng, tc.c, tc.h, tc.w)
		w := randomTensor(rng, tc.cout, tc.c, tc.k, tc.k)
		oh := ConvOutSize(tc.h, tc.k, tc.stride, tc.pad)
		ow := ConvOutSize(tc.w, tc.k, tc.stride, tc.pad)
		cols := New(tc.c*tc.k*tc.k, oh*ow)
		Im2Col(x.Data, tc.c, tc.h, tc.w, tc.k, tc.k, tc.stride, tc.stride, tc.pad, tc.pad, cols.Data, oh, ow)
		got := MatMul(w.Reshape(tc.cout, tc.c*tc.k*tc.k), cols).Reshape(tc.cout, oh, ow)
		tensorsClose(t, got, naiveConv(x, w, tc.stride, tc.pad), 1e-4)
	}
}

// TestCol2ImIsAdjointOfIm2Col verifies <Im2Col(x), y> == <x, Col2Im(y)> — the
// defining property of adjoint operators, which both the transpose
// convolution forward pass and the convolution backward pass rely on.
func TestCol2ImIsAdjointOfIm2Col(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c, h, w, k, stride, pad := 3, 8, 6, 3, 2, 1
	oh := ConvOutSize(h, k, stride, pad)
	ow := ConvOutSize(w, k, stride, pad)
	rows := c * k * k

	x := randomTensor(rng, c, h, w)
	y := randomTensor(rng, rows, oh*ow)

	colsX := New(rows, oh*ow)
	Im2Col(x.Data, c, h, w, k, k, stride, stride, pad, pad, colsX.Data, oh, ow)
	var lhs float64
	for i := range colsX.Data {
		lhs += float64(colsX.Data[i]) * float64(y.Data[i])
	}

	back := New(c, h, w)
	Col2Im(y.Data, c, h, w, k, k, stride, stride, pad, pad, back.Data, oh, ow)
	var rhs float64
	for i := range back.Data {
		rhs += float64(back.Data[i]) * float64(x.Data[i])
	}
	if math.Abs(lhs-rhs) > 1e-3*math.Max(1, math.Abs(lhs)) {
		t.Fatalf("adjoint identity violated: %v vs %v", lhs, rhs)
	}
}

func TestMaxPool2x2(t *testing.T) {
	x := New(1, 1, 4, 4)
	for i := range x.Data {
		x.Data[i] = float32(i)
	}
	out, arg := MaxPool2x2(x)
	want := []float32{5, 7, 13, 15}
	for i, w := range want {
		if out.Data[i] != w {
			t.Fatalf("pool[%d] = %v, want %v", i, out.Data[i], w)
		}
	}
	grad := New(1, 1, 2, 2)
	grad.Fill(1)
	back := MaxPool2x2Backward(grad, arg, 4, 4)
	var nz int
	for i, v := range back.Data {
		if v != 0 {
			nz++
			if want := float32(1); v != want || (i != 5 && i != 7 && i != 13 && i != 15) {
				t.Fatalf("backward scatter wrong at %d: %v", i, v)
			}
		}
	}
	if nz != 4 {
		t.Fatalf("backward has %d nonzeros, want 4", nz)
	}
}

func TestConcatSplitRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := randomTensor(rng, 2, 3, 4, 4)
	b := randomTensor(rng, 2, 5, 4, 4)
	cat := ConcatChannels(a, b)
	if cat.Shape[1] != 8 {
		t.Fatalf("concat channels = %d", cat.Shape[1])
	}
	a2, b2 := SplitChannels(cat, 3)
	tensorsClose(t, a2, a, 0)
	tensorsClose(t, b2, b, 0)
}

func TestSoftmaxChannels(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x := randomTensor(rng, 2, 4, 3, 3)
	p := SoftmaxChannels(x)
	n, c, h, w := 2, 4, 3, 3
	hw := h * w
	for img := 0; img < n; img++ {
		for pix := 0; pix < hw; pix++ {
			var s float64
			for ch := 0; ch < c; ch++ {
				v := float64(p.Data[(img*c+ch)*hw+pix])
				if v < 0 || v > 1 {
					t.Fatalf("probability out of range: %v", v)
				}
				s += v
			}
			if math.Abs(s-1) > 1e-5 {
				t.Fatalf("softmax sums to %v", s)
			}
		}
	}
}

func TestSoftmaxIsShiftInvariant(t *testing.T) {
	f := func(a, b, c float32, shift float32) bool {
		clamp := func(v float32) float32 { return min(max(v, -20), 20) }
		x := FromSlice([]float32{clamp(a), clamp(b), clamp(c)}, 1, 3, 1, 1)
		y := FromSlice([]float32{clamp(a) + clamp(shift), clamp(b) + clamp(shift), clamp(c) + clamp(shift)}, 1, 3, 1, 1)
		px := SoftmaxChannels(x)
		py := SoftmaxChannels(y)
		for i := range px.Data {
			if math.Abs(float64(px.Data[i]-py.Data[i])) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestArgmaxChannels(t *testing.T) {
	// pixel 0: channel 2 max; pixel 1: channel 0 max.
	x := FromSlice([]float32{0.1, 0.9, 0.2, 0.1, 0.7, 0.2}, 1, 3, 1, 2)
	got := ArgmaxChannels(x)
	if got[0] != 2 || got[1] != 0 {
		t.Fatalf("argmax = %v", got)
	}
}

func TestConvTransposeOutSize(t *testing.T) {
	// The U-Net decoder geometry: 3×3 kernel, stride 2, pad 1, outPad 1
	// exactly doubles the input size.
	for _, in := range []int{4, 8, 16, 128} {
		if got := ConvTransposeOutSize(in, 3, 2, 1, 1); got != 2*in {
			t.Fatalf("ConvTransposeOutSize(%d) = %d, want %d", in, got, 2*in)
		}
	}
	if got := ConvOutSize(256, 3, 1, 1); got != 256 {
		t.Fatalf("same-pad conv changes size: %d", got)
	}
}

func TestPropertyAddCommutes(t *testing.T) {
	f := func(a, b []float32) bool {
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		if n == 0 {
			return true
		}
		x1 := FromSlice(append([]float32(nil), a[:n]...), n)
		y1 := FromSlice(append([]float32(nil), b[:n]...), n)
		x2 := FromSlice(append([]float32(nil), b[:n]...), n)
		y2 := FromSlice(append([]float32(nil), a[:n]...), n)
		x1.AddInPlace(y1)
		x2.AddInPlace(y2)
		for i := 0; i < n; i++ {
			d1, d2 := x1.Data[i], x2.Data[i]
			if d1 != d2 && !(isNaN32(d1) && isNaN32(d2)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func isNaN32(f float32) bool { return f != f }

func TestApplyAndFill(t *testing.T) {
	x := New(10)
	x.Fill(3)
	x.Apply(func(v float32) float32 { return v * v })
	for _, v := range x.Data {
		if v != 9 {
			t.Fatalf("Apply result %v", v)
		}
	}
}

func TestShapePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	a := New(2, 2)
	b := New(3)
	mustPanic("AddInPlace", func() { a.AddInPlace(b) })
	mustPanic("FromSlice", func() { FromSlice([]float32{1}, 2) })
	mustPanic("MatMul", func() { MatMul(New(2, 3), New(4, 2)) })
}
