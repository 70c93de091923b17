package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
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
		c := New(dims[0], dims[2])
		MatMulInto(c, a, b)
		tensorsClose(t, c, naiveMatMul(a, b), 1e-4)
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

// convCase is one single-image convolution: dims (2 or 3) spatial axes of
// extents d (1 in 2D), h and w.
type convCase struct{ dims, c, d, h, w, cout, k, stride, pad int }

// convCases are the 2D and 3D geometries the lowering tests run.
var convCases = []convCase{
	{2, 1, 1, 8, 8, 4, 3, 1, 1},
	{2, 3, 1, 7, 9, 2, 3, 1, 1},
	{2, 2, 1, 8, 8, 3, 3, 2, 1},
	{2, 4, 1, 6, 6, 5, 1, 1, 0},
	{3, 2, 4, 5, 6, 3, 3, 1, 1},
	{3, 2, 4, 4, 4, 3, 3, 2, 1},
	{3, 3, 3, 4, 5, 2, 1, 1, 0},
}

// geometry builds the case's Conv and checks that a 2D case is a 3D one
// whose depth axis adds nothing: extent 1, kernel 1, stride 1, no padding.
func (tc convCase) geometry(t *testing.T) Conv {
	t.Helper()
	g := NewConv(1, tc.c, tc.cout, []int{tc.d, tc.h, tc.w}[3-tc.dims:], tc.k, tc.stride, tc.pad)
	out := func(in int) int { return ConvOutSize(in, tc.k, tc.stride, tc.pad) }
	want := Conv{N: 1, XC: tc.c, YC: tc.cout, X: [3]int{tc.d, tc.h, tc.w}, Y: [3]int{out(tc.d), out(tc.h), out(tc.w)},
		K: [3]int{tc.k, tc.k, tc.k}, S: [3]int{tc.stride, tc.stride, tc.stride}, P: [3]int{tc.pad, tc.pad, tc.pad}}
	if tc.dims == 2 {
		want.Y[0], want.K[0], want.S[0], want.P[0] = 1, 1, 1, 0
	}
	if g != want {
		t.Fatalf("%+v: geometry %+v, want %+v", tc, g, want)
	}
	return g
}

// naiveConv is the direct convolution reference, over a depth-1 volume for
// a 2D case, used to validate the im2col+matmul path.
func naiveConv(g Conv, x, w, bias []float32) []float32 {
	out := make([]float32, g.YC*volume(g.Y))
	for oc := 0; oc < g.YC; oc++ {
		for o := 0; o < volume(g.Y); o++ {
			oz, oy, ox := o/(g.Y[1]*g.Y[2]), o/g.Y[2]%g.Y[1], o%g.Y[2]
			s := float64(bias[oc])
			for ic := 0; ic < g.XC; ic++ {
				for kk := 0; kk < volume(g.K); kk++ {
					kz, ky, kx := kk/(g.K[1]*g.K[2]), kk/g.K[2]%g.K[1], kk%g.K[2]
					iz := oz*g.S[0] - g.P[0] + kz
					iy := oy*g.S[1] - g.P[1] + ky
					ix := ox*g.S[2] - g.P[2] + kx
					if iz < 0 || iz >= g.X[0] || iy < 0 || iy >= g.X[1] || ix < 0 || ix >= g.X[2] {
						continue
					}
					s += float64(x[((ic*g.X[0]+iz)*g.X[1]+iy)*g.X[2]+ix]) * float64(w[(oc*g.XC+ic)*volume(g.K)+kk])
				}
			}
			out[oc*volume(g.Y)+o] = float32(s)
		}
	}
	return out
}

func TestIm2ColMatMulEqualsDirectConv(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range convCases {
		g := tc.geometry(t)
		x := randomTensor(rng, g.XC*volume(g.X))
		w := randomTensor(rng, g.YC*g.rows())
		bias := randomTensor(rng, g.YC)
		got := New(g.YC * volume(g.Y))
		g.Forward(got.Data, x.Data, w.Data, bias.Data)
		tensorsClose(t, got, FromSlice(naiveConv(g, x.Data, w.Data, bias.Data), got.Len()), 1e-4)
	}
}

func dot(a, b []float32) float64 {
	var s float64
	for i := range a {
		s += float64(a[i]) * float64(b[i])
	}
	return s
}

// TestCol2ImIsAdjointOfIm2Col verifies <im2col(x), y> == <x, col2im(y)> — the
// defining property of adjoint operators, which both the transpose
// convolution forward pass and the convolution backward pass rely on — and
// the same of the Forward and Adjoint drivers built on them.
func TestCol2ImIsAdjointOfIm2Col(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, tc := range convCases {
		g := tc.geometry(t)
		x := randomTensor(rng, g.XC*volume(g.X))
		y := randomTensor(rng, g.rows()*volume(g.Y))
		cols := New(y.Len())
		g.im2col(cols.Data, x.Data)
		back := New(x.Len())
		g.col2im(back.Data, y.Data)
		lhs, rhs := dot(cols.Data, y.Data), dot(back.Data, x.Data)
		if math.Abs(lhs-rhs) > 1e-3*math.Max(1, math.Abs(lhs)) {
			t.Fatalf("%+v: adjoint identity violated: %v vs %v", tc, lhs, rhs)
		}

		w := randomTensor(rng, g.YC*g.rows())
		fy, ay := New(g.YC*volume(g.Y)), randomTensor(rng, g.YC*volume(g.Y))
		g.Forward(fy.Data, x.Data, w.Data, nil)
		g.Adjoint(back.Data, ay.Data, w.Data, nil)
		lhs, rhs = dot(fy.Data, ay.Data), dot(back.Data, x.Data)
		if math.Abs(lhs-rhs) > 1e-3*math.Max(1, math.Abs(lhs)) {
			t.Fatalf("%+v: Adjoint is not Forward's adjoint: %v vs %v", tc, lhs, rhs)
		}
	}
}

func TestMaxPool2x2(t *testing.T) {
	for _, shape := range [][]int{{1, 1, 4, 4}, {1, 1, 2, 4, 4}} {
		x := New(shape...)
		for i := range x.Data {
			x.Data[i] = float32(i)
		}
		out, arg := MaxPool2x2(x)
		// The maximum of every window is its last element.
		want := []int{5, 7, 13, 15}
		if len(shape) == 5 {
			want = []int{21, 23, 29, 31}
		}
		for i, w := range want {
			if out.Data[i] != float32(w) {
				t.Fatalf("%v: pool[%d] = %v, want %v", shape, i, out.Data[i], w)
			}
		}
		grad := New(out.Shape...)
		grad.Fill(1)
		back := MaxUnpool(grad, arg, x.Shape)
		var nz int
		for i, v := range back.Data {
			if v != 0 {
				nz++
				if v != 1 || !slices.Contains(want, i) {
					t.Fatalf("%v: backward scatter wrong at %d: %v", shape, i, v)
				}
			}
		}
		if nz != len(want) {
			t.Fatalf("%v: backward has %d nonzeros, want %d", shape, nz, len(want))
		}
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
	// mustPanic wants a panic whose message holds every string in want.
	mustPanic := func(name string, f func(), want ...string) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: expected panic", name)
			}
			for _, w := range want {
				if !strings.Contains(fmt.Sprint(r), w) {
					t.Fatalf("%s: panic %q does not name %s", name, r, w)
				}
			}
		}()
		f()
	}
	a := New(2, 2)
	b := New(3)
	mustPanic("AddInPlace", func() { a.AddInPlace(b) })
	mustPanic("FromSlice", func() { FromSlice([]float32{1}, 2) })
	// A B with more rows than A has columns used to multiply by its first
	// rows; one with fewer ran off its end.
	mustPanic("MatMulInto long B", func() { MatMulInto(New(2, 2), New(2, 3), New(4, 2)) }, "[2 3]", "[4 2]")
	mustPanic("MatMulInto short B", func() { MatMulInto(New(2, 2), New(2, 3), New(2, 2)) }, "[2 3]", "[2 2]")
	// Pairs that agree on dimensions 2 and 3 but not on their rank or on a
	// later extent must be refused too.
	mustPanic("ConcatChannels 5D W", func() { ConcatChannels(New(1, 2, 3, 4, 5), New(1, 1, 3, 4, 6)) }, "[1 2 3 4 5]", "[1 1 3 4 6]")
	mustPanic("ConcatChannels 4D/5D", func() { ConcatChannels(New(1, 2, 3, 4), New(1, 1, 3, 4, 5)) }, "[1 2 3 4]", "[1 1 3 4 5]")
}
