package tensor

import (
	"fmt"

	"seneca/internal/par"
)

// MatMulInto computes C = A·B for row-major matrices A (m×k) and B (k×n)
// into an existing m×n tensor c, overwriting it.
func MatMulInto(c, a, b *Tensor) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	if b.Shape[0] != k {
		panic(fmt.Sprintf("tensor: MatMulInto inner dimension mismatch %v × %v", a.Shape, b.Shape))
	}
	if c.Shape[0] != m || c.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInto output shape %v, want [%d %d]", c.Shape, m, n))
	}
	gemm(c.Data, a.Data, b.Data, m, k, n, k, 1)
}

// MatMulATInto computes C = Aᵀ·B where A is k×m and B is k×n, producing m×n.
func MatMulATInto(c, a, b *Tensor) {
	k, m := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	if b.Shape[0] != k {
		panic(fmt.Sprintf("tensor: MatMulATInto inner dimension mismatch %v vs %v", a.Shape, b.Shape))
	}
	if c.Shape[0] != m || c.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulATInto output shape %v, want [%d %d]", c.Shape, m, n))
	}
	gemm(c.Data, a.Data, b.Data, m, k, n, 1, m)
}

// gemm computes the m×n product c = A·b of a k×n b and an m×k A read from
// a through a row stride rs and a column stride cs: A[i][p] is
// a[i*rs+p*cs], so (k, 1) reads a row-major A and (1, m) the transpose of
// a row-major k×m one. It is an axpy kernel parallelized over rows of c,
// with an ikj loop order so the inner loop streams rows of b and c, which
// is the cache-friendly form for row-major data. Four rows of b per pass:
// one read-modify-write of the c row carries four multiply-adds, which is
// what bounds this form. Each element's accumulation order is a fixed
// function of (i, j) alone, so results are identical at every worker count
// and for both strides.
func gemm(c, a, b []float32, m, k, n, rs, cs int) {
	par.ForChunked(m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			crow := c[i*n : (i+1)*n]
			clear(crow)
			p := 0
			for ; p+3 < k; p += 4 {
				o := i*rs + p*cs
				a0, a1, a2, a3 := a[o], a[o+cs], a[o+2*cs], a[o+3*cs]
				if a0 == 0 && a1 == 0 && a2 == 0 && a3 == 0 {
					continue
				}
				b0 := b[p*n : (p+1)*n]
				b1 := b[(p+1)*n : (p+2)*n]
				b2 := b[(p+2)*n : (p+3)*n]
				b3 := b[(p+3)*n : (p+4)*n]
				b1 = b1[:len(b0)]
				b2 = b2[:len(b0)]
				b3 = b3[:len(b0)]
				cr := crow[:len(b0)]
				for j, bv := range b0 {
					cr[j] += a0*bv + a1*b1[j] + a2*b2[j] + a3*b3[j]
				}
			}
			for ; p < k; p++ {
				av := a[i*rs+p*cs]
				if av == 0 {
					continue
				}
				brow := b[p*n : (p+1)*n]
				for j, bv := range brow {
					crow[j] += av * bv
				}
			}
		}
	})
}

// MatMulBTInto computes C = A·Bᵀ where A is m×k and B is n×k, producing m×n.
// Used by convolution backward passes (gradient w.r.t. inputs).
func MatMulBTInto(c, a, b *Tensor) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[0]
	if b.Shape[1] != k {
		panic(fmt.Sprintf("tensor: MatMulBTInto inner dimension mismatch %v vs %v", a.Shape, b.Shape))
	}
	if c.Shape[0] != m || c.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulBTInto output shape %v, want [%d %d]", c.Shape, m, n))
	}
	ad, bd, cd := a.Data, b.Data, c.Data
	// Dot-product form: a single accumulator serializes on FP add latency,
	// so split the reduction across four independent chains and combine
	// them in a fixed tree at the end. The combine order depends only on k,
	// never on the worker count, keeping results deterministic.
	par.ForChunked(m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := ad[i*k : (i+1)*k]
			crow := cd[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				brow := bd[j*k : (j+1)*k]
				brow = brow[:len(arow)]
				var s0, s1, s2, s3 float32
				p := 0
				for ; p+3 < len(arow); p += 4 {
					s0 += arow[p] * brow[p]
					s1 += arow[p+1] * brow[p+1]
					s2 += arow[p+2] * brow[p+2]
					s3 += arow[p+3] * brow[p+3]
				}
				var t float32
				for ; p < len(arow); p++ {
					t += arow[p] * brow[p]
				}
				crow[j] = ((s0 + s1) + (s2 + s3)) + t
			}
		}
	})
}
