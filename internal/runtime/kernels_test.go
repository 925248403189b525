package runtime

import (
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"
)

// fill populates x with a deterministic, sign-varying pattern including
// exact zeros of both signs, so the bitwise checks also pin the sign of
// zero products and zero sums.
func fill(x []float32, seed uint64) {
	s := seed
	for i := range x {
		s = s*6364136223846793005 + 1442695040888963407
		v := float32(int32(s>>33)%1000) / 997
		switch s % 17 {
		case 0:
			v = 0
		case 1:
			v = float32(math.Copysign(0, -1))
		}
		x[i] = v
	}
}

func bitEqual(t *testing.T, name string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: bit mismatch at %d: got %v want %v", name, i, got[i], want[i])
		}
	}
}

// shapes covers below-threshold, at-threshold and well-above-threshold
// sizes, plus ragged dims that don't divide evenly into tiles or chunks.
var shapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{3, 5, 7},
	{8, 8, 8},
	{31, 64, 33},
	{64, 64, 64},
	{100, 128, 96},
	{257, 130, 511},
}

func withPoolSizes(t *testing.T, body func(t *testing.T)) {
	t.Helper()
	orig := Workers()
	defer SetWorkers(orig)
	for _, w := range []int{1, 2, 3, 8} {
		SetWorkers(w)
		t.Run(fmt.Sprintf("workers=%d", w), body)
	}
}

func TestMatMulParity(t *testing.T) {
	for _, sh := range shapes {
		a := make([]float32, sh.m*sh.k)
		b := make([]float32, sh.k*sh.n)
		fill(a, uint64(sh.m*1000+sh.k))
		fill(b, uint64(sh.k*1000+sh.n))
		want := make([]float32, sh.m*sh.n)
		MatMulSerial(want, a, b, sh.m, sh.k, sh.n)
		withPoolSizes(t, func(t *testing.T) {
			got := make([]float32, sh.m*sh.n)
			fill(got, 999) // kernels must fully overwrite stale output
			MatMul(got, a, b, sh.m, sh.k, sh.n)
			bitEqual(t, fmt.Sprintf("MatMul %dx%dx%d", sh.m, sh.k, sh.n), got, want)
		})
	}
}

func TestMatMulTParity(t *testing.T) {
	for _, sh := range shapes {
		a := make([]float32, sh.m*sh.k)
		b := make([]float32, sh.n*sh.k)
		fill(a, uint64(sh.m*7+sh.k))
		fill(b, uint64(sh.k*7+sh.n))
		want := make([]float32, sh.m*sh.n)
		MatMulTSerial(want, a, b, sh.m, sh.k, sh.n)
		withPoolSizes(t, func(t *testing.T) {
			got := make([]float32, sh.m*sh.n)
			fill(got, 999)
			MatMulT(got, a, b, sh.m, sh.k, sh.n)
			bitEqual(t, fmt.Sprintf("MatMulT %dx%dx%d", sh.m, sh.k, sh.n), got, want)
		})
	}
}

func TestTMatMulParity(t *testing.T) {
	for _, sh := range shapes {
		a := make([]float32, sh.k*sh.m)
		b := make([]float32, sh.k*sh.n)
		fill(a, uint64(sh.m*13+sh.k))
		fill(b, uint64(sh.k*13+sh.n))
		want := make([]float32, sh.m*sh.n)
		TMatMulSerial(want, a, b, sh.k, sh.m, sh.n)
		withPoolSizes(t, func(t *testing.T) {
			got := make([]float32, sh.m*sh.n)
			fill(got, 999)
			TMatMul(got, a, b, sh.k, sh.m, sh.n)
			bitEqual(t, fmt.Sprintf("TMatMul %dx%dx%d", sh.m, sh.k, sh.n), got, want)
		})
	}
}

// refMatMul is the textbook order MatMul and TMatMul must reproduce: each
// element starts at +0 and adds float32(A[i,p]·b[p,j]) for ascending p, with
// A[i,p] = a[i*ai + p*ap].
func refMatMul(a, b []float32, ai, ap, m, k, n int) []float32 {
	out := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc float32
			for p := 0; p < k; p++ {
				acc += float32(a[i*ai+p*ap] * b[p*n+j])
			}
			out[i*n+j] = acc
		}
	}
	return out
}

// refMatMulT is the textbook 4-lane dot order MatMulT must reproduce per
// element: lane q%4 sums products 4r+q, the k%4 tail goes into lane 0, and
// the lanes combine as s0+s1+s2+s3.
func refMatMulT(a, b []float32, m, k, n int) []float32 {
	out := make([]float32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s [4]float32
			for p := 0; p < k; p++ {
				lane := p % 4
				if p >= k-k%4 {
					lane = 0
				}
				s[lane] += float32(a[i*k+p] * b[j*k+p])
			}
			out[i*n+j] = s[0] + s[1] + s[2] + s[3]
		}
	}
	return out
}

// refShapes adds the model's real GEMM shapes (7B proxy: dim 128, hidden
// 344, vocab 256, 32 token rows per replica step, 256 in a zero2 global
// batch) to the ragged ones, read as each kernel's own (m, k, n).
var refShapes = append([]struct{ m, k, n int }{
	{32, 128, 128}, {32, 128, 344}, {32, 344, 128}, {32, 128, 256}, {32, 256, 128},
	{128, 32, 128}, {344, 32, 128}, {128, 32, 344}, {256, 32, 128},
	{128, 256, 128}, {344, 256, 128}, {128, 256, 344},
}, shapes...)

// TestKernelsMatchReference pins every kernel's accumulation order to the
// textbook loops bit for bit at every pool size. The parity tests above only
// relate a kernel to its own serial path, which a rewrite of both could
// change together.
func TestKernelsMatchReference(t *testing.T) {
	for _, sh := range refShapes {
		m, k, n := sh.m, sh.k, sh.n
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		fill(a, uint64(m*31+k))
		fill(b, uint64(k*31+n))
		wantMM := refMatMul(a, b, k, 1, m, k, n)  // a is m×k
		wantTMM := refMatMul(a, b, 1, m, m, k, n) // a read as k×m
		wantMMT := refMatMulT(a, b, m, k, n)      // b read as n×k
		withPoolSizes(t, func(t *testing.T) {
			got := make([]float32, m*n)
			fill(got, 999)
			MatMul(got, a, b, m, k, n)
			bitEqual(t, fmt.Sprintf("MatMul %dx%dx%d", m, k, n), got, wantMM)
			fill(got, 999)
			TMatMul(got, a, b, k, m, n)
			bitEqual(t, fmt.Sprintf("TMatMul %dx%dx%d", m, k, n), got, wantTMM)
			fill(got, 999)
			MatMulT(got, a, b, m, k, n)
			bitEqual(t, fmt.Sprintf("MatMulT %dx%dx%d", m, k, n), got, wantMMT)
		})
	}
}

// TestDotMatchesReference pins Dot, which attention scores call, to the
// same 4-lane order as MatMulT.
func TestDotMatchesReference(t *testing.T) {
	for _, k := range []int{0, 1, 3, 4, 7, 32, 129} {
		x := make([]float32, k)
		y := make([]float32, k)
		fill(x, uint64(k)+5)
		fill(y, uint64(k)+6)
		want := refMatMulT(x, y, 1, k, 1)
		bitEqual(t, fmt.Sprintf("Dot k=%d", k), []float32{Dot(x, y)}, want)
	}
}

// TestNonFinitePropagates: the kernels multiply every pair, zeros included,
// so a NaN or Inf in b reaches every output it feeds even where the matching
// a entries are zero (0·Inf = NaN), as in the textbook loop. The bad value
// visits every column, so register tiles and ragged edges are all covered.
func TestNonFinitePropagates(t *testing.T) {
	const m, k, n = 5, 6, 7
	a := make([]float32, m*k) // all zero
	b := make([]float32, k*n)
	out := make([]float32, m*n)
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1))} {
		for jb := 0; jb < n; jb++ {
			fill(b, 8)
			b[2*n+jb] = bad // row p=2 of the k×n b
			for _, kc := range []struct {
				name string
				run  func()
			}{
				{"MatMul", func() { MatMul(out, a, b, m, k, n) }},
				{"TMatMul", func() { TMatMul(out, a, b, k, m, n) }},
			} {
				kc.run()
				for i := 0; i < m; i++ {
					for j := 0; j < n; j++ {
						if nan := math.IsNaN(float64(out[i*n+j])); nan != (j == jb) {
							t.Fatalf("%s with b[2,%d]=%v: out[%d,%d] = %v", kc.name, jb, bad, i, j, out[i*n+j])
						}
					}
				}
			}
		}
	}
}

// TestMatMulMatchesNaive pins the kernels to the exact triple loop within
// float tolerance (a float64 check that the kernels compute the right
// product at all, independent of any float32 ordering).
func TestMatMulMatchesNaive(t *testing.T) {
	m, k, n := 33, 20, 29
	a := make([]float32, m*k)
	b := make([]float32, k*n)
	fill(a, 3)
	fill(b, 4)
	// naive(ai, ap, bp, bj) = Σ_p A[i,p]·B[p,j] with A[i,p] = a[i*ai+p*ap]
	// and B[p,j] = b[p*bp+j*bj].
	naive := func(ai, ap, bp, bj int) []float64 {
		out := make([]float64, m*n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				for p := 0; p < k; p++ {
					out[i*n+j] += float64(a[i*ai+p*ap]) * float64(b[p*bp+j*bj])
				}
			}
		}
		return out
	}
	check := func(name string, got []float32, want []float64) {
		for i := range got {
			if d := float64(got[i]) - want[i]; d > 1e-3 || d < -1e-3 {
				t.Fatalf("%s vs naive at %d: got %v want %v", name, i, got[i], want[i])
			}
		}
	}
	got := make([]float32, m*n)
	MatMul(got, a, b, m, k, n)
	check("MatMul", got, naive(k, 1, n, 1))
	TMatMul(got, a, b, k, m, n)
	check("TMatMul", got, naive(1, m, n, 1))
	MatMulT(got, a, b, m, k, n)
	check("MatMulT", got, naive(k, 1, 1, k))
}

func TestReduceParity(t *testing.T) {
	for _, n := range []int{0, 1, 100, reduceChunk, reduceChunk + 1, 3*reduceChunk + 17, ParallelReduceMin + 5} {
		x := make([]float32, n)
		fill(x, uint64(n)+11)
		origWorkers := Workers()
		SetWorkers(1)
		wantSum := SumChunked(x)
		wantSq := SqNormChunked(x)
		SetWorkers(origWorkers)
		withPoolSizes(t, func(t *testing.T) {
			if got := SumChunked(x); got != wantSum {
				t.Fatalf("SumChunked(n=%d) = %v, want %v", n, got, wantSum)
			}
			if got := SqNormChunked(x); got != wantSq {
				t.Fatalf("SqNormChunked(n=%d) = %v, want %v", n, got, wantSq)
			}
		})
	}
}

func TestAxpyScaleParity(t *testing.T) {
	n := 1<<15 + 13
	x := make([]float32, n)
	fill(x, 21)
	yserial := make([]float32, n)
	fill(yserial, 22)
	orig := Workers()
	SetWorkers(1)
	Axpy(0.75, x, yserial)
	Scale(yserial, -1.25)
	SetWorkers(orig)
	withPoolSizes(t, func(t *testing.T) {
		y := make([]float32, n)
		fill(y, 22)
		Axpy(0.75, x, y)
		Scale(y, -1.25)
		bitEqual(t, "Axpy+Scale", y, yserial)
	})
}

// TestNestedForRange exercises fan-out from inside pool tasks (the shape the
// data-parallel trainer produces: replica goroutines running pooled
// kernels). The helping wait loop must keep this deadlock-free.
func TestNestedForRange(t *testing.T) {
	orig := Workers()
	defer SetWorkers(orig)
	SetWorkers(4)
	out := make([]float32, 64*64)
	a := make([]float32, 64*64)
	b := make([]float32, 64*64)
	fill(a, 1)
	fill(b, 2)
	ForRange(16, 1, func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			local := make([]float32, 64*64)
			MatMul(local, a, b, 64, 64, 64)
			if i == 0 {
				copy(out, local)
			}
		}
	})
	want := make([]float32, 64*64)
	MatMulSerial(want, a, b, 64, 64, 64)
	bitEqual(t, "nested MatMul", out, want)
}

// TestForRangePanicPropagates checks a panicking chunk surfaces on the
// ForRange caller (not a background worker) and leaves the pool usable.
func TestForRangePanicPropagates(t *testing.T) {
	orig := Workers()
	defer SetWorkers(orig)
	SetWorkers(4)
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Fatal("expected ForRange to re-panic")
			}
		}()
		ForRange(100, 1, func(i0, i1 int) {
			if i0 > 0 { // panic only in a submitted (non-caller) chunk
				panic("chunk boom")
			}
		})
	}()
	// The pool must still work after swallowing the panic.
	var hits [32]int32
	ForRange(32, 1, func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			hits[i]++
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("post-panic: index %d visited %d times", i, h)
		}
	}
}

// TestForRangeCallerPanicWaitsForInflight pins the pool-hardening contract:
// when the CALLER-executed chunk panics, ForRange must still wait for every
// in-flight submitted chunk before re-raising — otherwise a recovering
// caller (bench.runCaptured keeps scheduling after recovering) races
// against workers still writing into the shared output.
func TestForRangeCallerPanicWaitsForInflight(t *testing.T) {
	p := NewPool(4) // private pool: the shared one may be size 1 on 1-core hosts
	const n, chunks = 64, 4
	var completed int32
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("expected ForRange to re-panic the caller chunk's panic")
			}
			if r != "caller boom" {
				t.Fatalf("re-panicked %v, want the caller chunk's panic", r)
			}
			// The moment the panic surfaces, every submitted chunk must have
			// finished — no in-flight writers left behind.
			if got := atomic.LoadInt32(&completed); got != chunks-1 {
				t.Fatalf("panic escaped with %d of %d submitted chunks complete", got, chunks-1)
			}
		}()
		p.ForRange(n, n/chunks, func(i0, i1 int) {
			if i0 == 0 { // the chunk the caller executes itself
				panic("caller boom")
			}
			time.Sleep(20 * time.Millisecond) // in-flight long enough to observe
			atomic.AddInt32(&completed, 1)
		})
	}()
	// The pool stays usable afterwards.
	var hits int32
	p.ForRange(16, 1, func(i0, i1 int) { atomic.AddInt32(&hits, int32(i1-i0)) })
	if hits != 16 {
		t.Fatalf("post-panic ForRange covered %d of 16", hits)
	}
}

func TestPoolResize(t *testing.T) {
	p := NewPool(4)
	if p.Size() != 4 {
		t.Fatalf("Size = %d, want 4", p.Size())
	}
	p.Resize(1)
	if p.Size() != 1 {
		t.Fatalf("Size = %d, want 1", p.Size())
	}
	p.Resize(8)
	var hits [100]int32
	p.ForRange(100, 1, func(i0, i1 int) {
		for i := i0; i < i1; i++ {
			hits[i]++
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}
