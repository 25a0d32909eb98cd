package nas

import (
	"runtime"
	"testing"

	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/omp"
)

// withRealRuntime runs body inside an OpenMP runtime on the real
// (goroutine) layer and closes the pool.
func withRealRuntime(tb testing.TB, threads int, body func(tc exec.TC, rt *omp.Runtime)) {
	tb.Helper()
	layer := exec.NewRealLayer(threads)
	rt := omp.New(layer, omp.Options{MaxThreads: threads, Bind: true})
	_, err := layer.Run(func(tc exec.TC) {
		body(tc, rt)
		rt.Close(tc)
	})
	if err != nil {
		tb.Fatal(err)
	}
}

// BenchmarkKernel times one call of each real kernel at the sizes the
// benchmark module's loop_kernels workload runs them, on the real layer
// at min(GOMAXPROCS, 4) threads like that workload. Build it once per
// checkout with `go test -c ./internal/nas/` and run
// `./nas.test -test.run '^$' -test.bench Kernel` to pair two versions.
func BenchmarkKernel(b *testing.B) {
	threads := min(runtime.GOMAXPROCS(0), 4)
	a := MakeSparse(1<<13, 8, 20)
	for _, k := range []struct {
		name string
		run  func(tc exec.TC, rt *omp.Runtime)
	}{
		{"EP", func(tc exec.TC, rt *omp.Runtime) { EP(tc, rt, 20, threads) }},
		{"CG", func(tc exec.TC, rt *omp.Runtime) { CG(tc, rt, a, 2, 10, 20, threads) }},
		{"MG", func(tc exec.TC, rt *omp.Runtime) { MG(tc, rt, 32, 2, threads) }},
		{"IS", func(tc exec.TC, rt *omp.Runtime) { IS(tc, rt, 1<<18, 1<<11, threads) }},
	} {
		b.Run(k.name, func(b *testing.B) {
			b.ReportAllocs()
			withRealRuntime(b, threads, func(tc exec.TC, rt *omp.Runtime) {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					k.run(tc, rt)
				}
				b.StopTimer()
			})
		})
	}
}
