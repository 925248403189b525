package runtime

// Register-blocked multi-goroutine kernels for the hot dense ops. All
// matrices are row-major float32 slices with explicit dimensions so this
// package depends on nothing above it; internal/tensor dispatches here.
//
// Bit-identity: every output element has one fixed accumulation order that
// depends only on the inner dimension, never on the tile it falls in, the
// pool chunk that computes it or the worker count. MatMul and TMatMul start
// each element at +0 and add float32(a·b) for p = 0..k-1 in ascending order;
// MatMulT uses Dot's 4-lane order. The parallel kernels therefore reproduce
// the serial ones, and both reproduce the textbook loops in kernels_test.go
// bit for bit.
//
// Contraction-proofing: every multiply-accumulate is written
// acc += float32(x*y) (float64 in the float64 reductions). The explicit
// conversion rounds the product, which forbids the compiler from fusing the
// pair into one FMA instruction (Go spec, "Floating-point operators"), so
// arm64, ppc64 and s390x round exactly like amd64. CI greps the arm64
// assembly of this package for fused multiply-adds.

const (
	// matmulParallelFlops is the multiply-add count above which the matmul
	// kernels fan out to the pool; below it goroutine hand-off costs more
	// than the work.
	matmulParallelFlops = 64 * 1024
	// tileRows is the output-row height of the MatMul/TMatMul register tile
	// (2 rows × 4 columns = 8 accumulators; a 4×4 tile's 16 accumulators
	// fill amd64's 16 XMM registers and spill).
	tileRows = 2
	// reduceChunk is the fixed reduction grid: partial sums are computed per
	// chunk and combined in chunk order, making the result independent of
	// worker count. The grid depends only on the input length.
	reduceChunk = 8192
	// ParallelReduceMin is the input length above which the chunked parallel
	// reductions are worth dispatching.
	ParallelReduceMin = 1 << 16
)

// tileGrain is the pool grain, in tiles of tile output rows costing
// rowFlops multiply-adds each, that keeps at least matmulParallelFlops of
// work per chunk. Pooled chunks are whole tiles, so no chunk boundary
// leaves a 1-row tail.
func tileGrain(tile, rowFlops int) int {
	tileFlops := tile * rowFlops
	return (matmulParallelFlops + tileFlops - 1) / tileFlops
}

// MatMul computes out = a·b with a m×k, b k×n, out m×n. out is fully
// overwritten. Bit-identical to MatMulSerial.
func MatMul(out, a, b []float32, m, k, n int) {
	if m*k*n < matmulParallelFlops {
		gemm(out, a, b, k, 1, k, n, 0, m)
		return
	}
	tiles := (m + tileRows - 1) / tileRows
	ForRange(tiles, tileGrain(tileRows, k*n), func(t0, t1 int) {
		gemm(out, a, b, k, 1, k, n, t0*tileRows, min(t1*tileRows, m))
	})
}

// MatMulSerial is the single-goroutine reference for MatMul.
func MatMulSerial(out, a, b []float32, m, k, n int) {
	gemm(out, a, b, k, 1, k, n, 0, m)
}

// TMatMul computes out = aᵀ·b with a k×m, b k×n, out m×n, without
// materializing the transpose. out is fully overwritten. Bit-identical to
// TMatMulSerial.
func TMatMul(out, a, b []float32, k, m, n int) {
	if m*k*n < matmulParallelFlops {
		gemm(out, a, b, 1, m, k, n, 0, m)
		return
	}
	tiles := (m + tileRows - 1) / tileRows
	ForRange(tiles, tileGrain(tileRows, k*n), func(t0, t1 int) {
		gemm(out, a, b, 1, m, k, n, t0*tileRows, min(t1*tileRows, m))
	})
}

// TMatMulSerial is the single-goroutine reference for TMatMul.
func TMatMulSerial(out, a, b []float32, k, m, n int) {
	gemm(out, a, b, 1, m, k, n, 0, m)
}

// gemm writes output rows [i0, i1) of out = A·b, where A is the m×k operand
// whose element (i, p) sits at a[i*ai + p*ap] (ai = k, ap = 1 for a itself;
// ai = 1, ap = m for the transpose of a k×m matrix), b is k×n and out m×n.
// It walks 2×4 register tiles, then a 1-column strip and a 1-row strip for
// the ragged edges; every element sums float32(A[i,p]·b[p,j]) over
// ascending p from +0.
func gemm(out, a, b []float32, ai, ap, k, n, i0, i1 int) {
	i := i0
	for ; i+tileRows <= i1; i += tileRows {
		o0 := out[i*n : (i+1)*n]
		o1 := out[(i+1)*n : (i+2)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			var c00, c01, c02, c03, c10, c11, c12, c13 float32
			ia, jb := i*ai, j
			for p := 0; p < k; p++ {
				a0, a1 := a[ia], a[ia+ai]
				bp := b[jb : jb+4 : jb+4]
				b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
				c00 += float32(a0 * b0)
				c01 += float32(a0 * b1)
				c02 += float32(a0 * b2)
				c03 += float32(a0 * b3)
				c10 += float32(a1 * b0)
				c11 += float32(a1 * b1)
				c12 += float32(a1 * b2)
				c13 += float32(a1 * b3)
				ia += ap
				jb += n
			}
			o0[j], o0[j+1], o0[j+2], o0[j+3] = c00, c01, c02, c03
			o1[j], o1[j+1], o1[j+2], o1[j+3] = c10, c11, c12, c13
		}
		for ; j < n; j++ {
			var c0, c1 float32
			ia, jb := i*ai, j
			for p := 0; p < k; p++ {
				bv := b[jb]
				c0 += float32(a[ia] * bv)
				c1 += float32(a[ia+ai] * bv)
				ia += ap
				jb += n
			}
			o0[j], o1[j] = c0, c1
		}
	}
	for ; i < i1; i++ {
		o := out[i*n : (i+1)*n]
		j := 0
		for ; j+4 <= n; j += 4 {
			var c0, c1, c2, c3 float32
			ia, jb := i*ai, j
			for p := 0; p < k; p++ {
				av := a[ia]
				bp := b[jb : jb+4 : jb+4]
				c0 += float32(av * bp[0])
				c1 += float32(av * bp[1])
				c2 += float32(av * bp[2])
				c3 += float32(av * bp[3])
				ia += ap
				jb += n
			}
			o[j], o[j+1], o[j+2], o[j+3] = c0, c1, c2, c3
		}
		for ; j < n; j++ {
			var c float32
			ia, jb := i*ai, j
			for p := 0; p < k; p++ {
				c += float32(a[ia] * b[jb])
				ia += ap
				jb += n
			}
			o[j] = c
		}
	}
}

// MatMulT computes out = a·bᵀ with a m×k, b n×k, out m×n, without
// materializing the transpose. Every element is Dot(a row, b row).
// Bit-identical to MatMulTSerial.
func MatMulT(out, a, b []float32, m, k, n int) {
	if m*k*n < matmulParallelFlops {
		matmulTRows(out, a, b, k, n, 0, m)
		return
	}
	ForRange(m, tileGrain(1, k*n), func(i0, i1 int) {
		matmulTRows(out, a, b, k, n, i0, i1)
	})
}

// MatMulTSerial is the single-goroutine reference for MatMulT.
func MatMulTSerial(out, a, b []float32, m, k, n int) {
	matmulTRows(out, a, b, k, n, 0, m)
}

// matmulTRows writes rows [i0, i1) of out = a·bᵀ in 1×2 tiles: one pass
// over the a row feeds two b rows, each with Dot's own four lanes.
func matmulTRows(out, a, b []float32, k, n, i0, i1 int) {
	for i := i0; i < i1; i++ {
		x := a[i*k : (i+1)*k]
		o := out[i*n : (i+1)*n]
		j := 0
		for ; j+2 <= n; j += 2 {
			// Reslicing to len(x) lets the compiler drop y's and z's
			// bounds checks in the loop.
			y := b[j*k : (j+1)*k][:len(x)]
			z := b[(j+1)*k : (j+2)*k][:len(x)]
			var s0, s1, s2, s3, t0, t1, t2, t3 float32
			p := 0
			for ; p+4 <= len(x); p += 4 {
				x0, x1, x2, x3 := x[p], x[p+1], x[p+2], x[p+3]
				s0 += float32(x0 * y[p])
				s1 += float32(x1 * y[p+1])
				s2 += float32(x2 * y[p+2])
				s3 += float32(x3 * y[p+3])
				t0 += float32(x0 * z[p])
				t1 += float32(x1 * z[p+1])
				t2 += float32(x2 * z[p+2])
				t3 += float32(x3 * z[p+3])
			}
			for ; p < len(x); p++ {
				s0 += float32(x[p] * y[p])
				t0 += float32(x[p] * z[p])
			}
			o[j], o[j+1] = s0+s1+s2+s3, t0+t1+t2+t3
		}
		if j < n {
			o[j] = Dot(x, b[j*k:(j+1)*k])
		}
	}
}

// Dot returns the inner product of equal-length slices. Lanes s0..s3
// accumulate elements 4q..4q+3, the tail goes into s0, and the result is
// s0+s1+s2+s3 left to right; MatMulT reproduces this order per element.
func Dot(x, y []float32) float32 {
	if len(x) != len(y) {
		panic("runtime: Dot length mismatch")
	}
	y = y[:len(x)]
	var s0, s1, s2, s3 float32
	n := len(x)
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += float32(x[i] * y[i])
		s1 += float32(x[i+1] * y[i+1])
		s2 += float32(x[i+2] * y[i+2])
		s3 += float32(x[i+3] * y[i+3])
	}
	for ; i < n; i++ {
		s0 += float32(x[i] * y[i])
	}
	return s0 + s1 + s2 + s3
}

// Axpy computes y += alpha·x across the pool for large slices. Disjoint
// ranges make any grid bit-identical to the serial loop.
func Axpy(alpha float32, x, y []float32) {
	ForRange(len(x), 1<<14, func(i0, i1 int) {
		axpy(alpha, x[i0:i1], y[i0:i1])
	})
}

// Scale computes x *= alpha across the pool for large slices.
func Scale(x []float32, alpha float32) {
	ForRange(len(x), 1<<14, func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			x[i] *= alpha
		}
	})
}

// SumChunked returns Σ x accumulated in float64 over the fixed reduction
// grid: chunk partials (serial within a chunk) combined in chunk order. The
// grid depends only on len(x), so the result is bit-identical at any worker
// count.
func SumChunked(x []float32) float64 {
	return reduceChunked(x, func(c []float32) float64 {
		var s float64
		for _, v := range c {
			s += float64(v)
		}
		return s
	})
}

// SqNormChunked returns Σ x² with the same fixed-grid determinism as
// SumChunked.
func SqNormChunked(x []float32) float64 {
	return reduceChunked(x, func(c []float32) float64 {
		var s float64
		for _, v := range c {
			s += float64(float64(v) * float64(v))
		}
		return s
	})
}

func reduceChunked(x []float32, chunkSum func([]float32) float64) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	chunks := (n + reduceChunk - 1) / reduceChunk
	if chunks == 1 {
		return chunkSum(x)
	}
	partials := make([]float64, chunks)
	ForRange(chunks, 1, func(c0, c1 int) {
		for c := c0; c < c1; c++ {
			lo := c * reduceChunk
			hi := lo + reduceChunk
			if hi > n {
				hi = n
			}
			partials[c] = chunkSum(x[lo:hi])
		}
	})
	var s float64
	for _, p := range partials {
		s += p
	}
	return s
}

// axpy computes y += a·x; the 4-way unroll keeps the hot loop friendly to
// bounds-check elimination.
func axpy(a float32, x, y []float32) {
	n := len(x)
	y = y[:n]
	i := 0
	for ; i+4 <= n; i += 4 {
		y[i] += float32(a * x[i])
		y[i+1] += float32(a * x[i+1])
		y[i+2] += float32(a * x[i+2])
		y[i+3] += float32(a * x[i+3])
	}
	for ; i < n; i++ {
		y[i] += float32(a * x[i])
	}
}
