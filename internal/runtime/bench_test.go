package runtime

import (
	"fmt"
	"testing"
)

// The BENCH_runtime.json snapshot at the repo root records these numbers
// with the host they were measured on; re-run with
//
//	go test ./internal/runtime/ -run '^$' -bench 'MatMul|KernelShapes' -benchtime 2s
//
// to regenerate. Speedup scales with core count: the parallel kernel is
// bit-identical to the serial one, so worker count is a pure perf knob.

func benchMatMul(b *testing.B, size int, parallel bool) {
	a := make([]float32, size*size)
	bb := make([]float32, size*size)
	out := make([]float32, size*size)
	fill(a, 1)
	fill(bb, 2)
	orig := Workers()
	defer SetWorkers(orig)
	if !parallel {
		SetWorkers(1)
	}
	b.SetBytes(int64(size * size * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(out, a, bb, size, size, size)
	}
}

func BenchmarkMatMulSerial(b *testing.B) {
	for _, size := range []int{128, 256, 512} {
		b.Run(fmt.Sprintf("%dx%d", size, size), func(b *testing.B) {
			benchMatMul(b, size, false)
		})
	}
}

func BenchmarkMatMulParallel(b *testing.B) {
	for _, size := range []int{128, 256, 512} {
		b.Run(fmt.Sprintf("%dx%d", size, size), func(b *testing.B) {
			benchMatMul(b, size, true)
		})
	}
}

// kernelShapes lists each kernel's calls at the 7B proxy's real shapes
// (dim 128, hidden 344, vocab 256), as the kernel's own m×k×n. Per
// nn.Linear over 32 token rows: the forward y = x·Wᵀ is MatMulT, dW = dyᵀ·x
// is TMatMul with k = 32 rows (k = 256 for a zero2 global batch of 8×32)
// and dx = dy·W is MatMul. 512³ is the square reference point.
var kernelShapes = []struct {
	kernel  string
	m, k, n int
}{
	{"MatMulT", 32, 128, 128}, {"MatMulT", 32, 128, 344}, {"MatMulT", 32, 344, 128}, {"MatMulT", 32, 128, 256},
	{"TMatMul", 128, 32, 128}, {"TMatMul", 344, 32, 128}, {"TMatMul", 128, 32, 344}, {"TMatMul", 256, 32, 128},
	{"TMatMul", 128, 256, 128}, {"TMatMul", 344, 256, 128}, {"TMatMul", 128, 256, 344},
	{"MatMul", 32, 128, 128}, {"MatMul", 32, 344, 128}, {"MatMul", 32, 128, 344}, {"MatMul", 32, 256, 128},
	{"MatMul", 512, 512, 512}, {"MatMulT", 512, 512, 512}, {"TMatMul", 512, 512, 512},
}

// BenchmarkKernelShapes reports GFLOP/s (2·m·k·n per call) for every kernel
// at the model's real shapes, serial and on the shared pool.
func BenchmarkKernelShapes(b *testing.B) {
	for _, sh := range kernelShapes {
		for _, pooled := range []bool{false, true} {
			mode := "serial"
			if pooled {
				mode = "pooled"
			}
			name := fmt.Sprintf("%s/%dx%dx%d/%s", sh.kernel, sh.m, sh.k, sh.n, mode)
			b.Run(name, func(b *testing.B) {
				m, k, n := sh.m, sh.k, sh.n
				a := make([]float32, m*k)
				bb := make([]float32, k*n)
				out := make([]float32, m*n)
				fill(a, 1)
				fill(bb, 2)
				var run func()
				switch sh.kernel {
				case "MatMul":
					run = func() { MatMul(out, a, bb, m, k, n) }
				case "MatMulT":
					run = func() { MatMulT(out, a, bb, m, k, n) }
				case "TMatMul":
					run = func() { TMatMul(out, a, bb, k, m, n) }
				}
				orig := Workers()
				defer SetWorkers(orig)
				if !pooled {
					SetWorkers(1)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					run()
				}
				b.ReportMetric(2*float64(m*k*n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}

func BenchmarkSqNormChunked(b *testing.B) {
	x := make([]float32, 1<<20)
	fill(x, 3)
	b.SetBytes(int64(len(x) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SqNormChunked(x)
	}
}
