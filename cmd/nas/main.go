// Command nas runs the real NAS computational kernels (EP, CG, MG, FT,
// IS, and the compact BT/SP/LU variants) on real goroutines through the
// OpenMP runtime, reporting wall-clock time, speedup, and verification.
//
// Usage:
//
//	nas                      # run everything at a small size
//	nas -bench ep -threads 8 -size 20
//	nas -bench cg -threads 4
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/nas"
	"github.com/interweaving/komp/internal/omp"
	"github.com/interweaving/komp/internal/ompt"
	"github.com/interweaving/komp/internal/trace"
)

type kernel struct {
	name string
	// run executes the kernel and returns a verification string.
	run func(tc exec.TC, rt *omp.Runtime, threads, size int) string
}

func kernels() []kernel {
	return []kernel{
		{"ep", func(tc exec.TC, rt *omp.Runtime, threads, size int) string {
			res := nas.EP(tc, rt, uint(size), threads)
			return fmt.Sprintf("pairs=2^%d sx=%.6f sy=%.6f counts=%v", size, res.Sx, res.Sy, res.Counts)
		}},
		{"cg", func(tc exec.TC, rt *omp.Runtime, threads, size int) string {
			a := nas.MakeSparse(1<<size, 8, 20)
			res := nas.CG(tc, rt, a, 4, 15, 10, threads)
			return fmt.Sprintf("n=%d zeta=%.10f rnorm=%.2e", a.N, res.Zeta, res.RNorm)
		}},
		{"mg", func(tc exec.TC, rt *omp.Runtime, threads, size int) string {
			n := 1 << (size / 4)
			if n < 16 {
				n = 16
			}
			res := nas.MG(tc, rt, n, 4, threads)
			return fmt.Sprintf("grid=%d^3 cycles=%d rnorm=%.3e", n, res.Cycles, res.RNorm)
		}},
		{"ft", func(tc exec.TC, rt *omp.Runtime, threads, size int) string {
			n := 1 << (size / 5)
			if n < 8 {
				n = 8
			}
			res := nas.FT(tc, rt, n, 4, threads)
			last := res.Checksums[len(res.Checksums)-1]
			return fmt.Sprintf("grid=%d^3 iter=4 checksum=%.6f%+.6fi", n, real(last), imag(last))
		}},
		{"is", func(tc exec.TC, rt *omp.Runtime, threads, size int) string {
			res := nas.IS(tc, rt, 1<<size, 1<<10, threads)
			return fmt.Sprintf("keys=2^%d sorted=%v ranksum=%d", size, res.Sorted, res.RankSum)
		}},
		{"bt", func(tc exec.TC, rt *omp.Runtime, threads, size int) string {
			n := size
			if n < 8 {
				n = 8
			}
			res := nas.BTCompact(tc, rt, n, 4, threads)
			return fmt.Sprintf("grid=%d^3 steps=%d max=%.6f sum=%.6f", n, res.Steps, res.MaxAbs, res.Sum)
		}},
		{"sp", func(tc exec.TC, rt *omp.Runtime, threads, size int) string {
			n := size
			if n < 8 {
				n = 8
			}
			res := nas.SPCompact(tc, rt, n, 4, threads)
			return fmt.Sprintf("grid=%d^3 steps=%d max=%.6f sum=%.6f", n, res.Steps, res.MaxAbs, res.Sum)
		}},
		{"btblock", func(tc exec.TC, rt *omp.Runtime, threads, size int) string {
			n := size / 2
			if n < 6 {
				n = 6
			}
			res := nas.BTBlock(tc, rt, n, 3, threads)
			return fmt.Sprintf("grid=%d^3 3x3-block ADI steps=%d max=%.6f sum=%.6f", n, res.Steps, res.MaxAbs, res.Sum)
		}},
		{"lu", func(tc exec.TC, rt *omp.Runtime, threads, size int) string {
			n := size
			if n < 8 {
				n = 8
			}
			res := nas.LUCompactRun(tc, rt, n, 12, 1.3, threads)
			return fmt.Sprintf("grid=%d^3 ssor=%d rnorm %.3e -> %.3e", n, res.Iters, res.RNorm0, res.RNorm)
		}},
	}
}

func main() {
	benchName := flag.String("bench", "", "kernel (ep,cg,mg,ft,is,bt,btblock,sp,lu); empty = all")
	threads := flag.Int("threads", runtime.GOMAXPROCS(0), "thread count")
	size := flag.Int("size", 16, "problem size exponent / grid edge")
	traceFile := flag.String("trace", "", "write a Chrome trace (chrome://tracing) of the run")
	flag.Parse()
	var tracer *trace.Tracer
	if *traceFile != "" {
		tracer = trace.New()
	}

	sel := kernels()
	if *benchName != "" {
		sel = nil
		for _, k := range kernels() {
			if k.name == strings.ToLower(*benchName) {
				sel = []kernel{k}
			}
		}
		if sel == nil {
			fmt.Fprintf(os.Stderr, "nas: unknown kernel %q\n", *benchName)
			os.Exit(2)
		}
	}

	for _, k := range sel {
		layer := exec.NewRealLayer(*threads)
		opts := omp.Options{MaxThreads: *threads, Bind: true}
		if tracer != nil {
			opts.Spine = ompt.NewSpine()
			trace.Attach(tracer, opts.Spine)
		}
		rt := omp.New(layer, opts)
		var verify string
		start := time.Now()
		_, err := layer.Run(func(tc exec.TC) {
			verify = k.run(tc, rt, *threads, *size)
			rt.Close(tc)
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "nas: %s: %v\n", k.name, err)
			os.Exit(1)
		}
		fmt.Printf("%-4s %8.3fs on %d threads   %s\n", k.name, time.Since(start).Seconds(), *threads, verify)
	}
	if tracer != nil {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nas: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := tracer.WriteJSON(f); err != nil {
			fmt.Fprintf(os.Stderr, "nas: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("trace with %d events written to %s\n", tracer.Len(), *traceFile)
	}
}
