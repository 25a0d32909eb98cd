package nas

import (
	"math"
	"math/cmplx"
	"slices"
	"testing"

	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/omp"
	"github.com/interweaving/komp/internal/sim"
)

// withRuntime runs body inside an OpenMP runtime on a small simulated
// layer (deterministic) and closes the pool.
func withRuntime(t *testing.T, threads int, body func(tc exec.TC, rt *omp.Runtime)) {
	t.Helper()
	layer := exec.NewSimLayer(sim.New(threads, 5), exec.Costs{
		ThreadSpawnNS: 1000, FutexWaitEntryNS: 60, FutexWakeEntryNS: 60,
		FutexWakeLatencyNS: 200, AtomicRMWNS: 15, CacheLineXferNS: 30, MallocNS: 60})
	rt := omp.New(layer, omp.Options{MaxThreads: threads, Bind: true})
	_, err := layer.Run(func(tc exec.TC) {
		body(tc, rt)
		rt.Close(tc)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// --- PRNG ---

func TestRandlcMatchesSequential(t *testing.T) {
	r1 := NewRand(0)
	for i := 0; i < 1000; i++ {
		r1.Next()
	}
	r2 := RandAt(DefaultSeed, 1000)
	if r1.Next() != r2.Next() {
		t.Fatal("skip-ahead diverges from sequential stream")
	}
}

func TestRandlcRange(t *testing.T) {
	r := NewRand(0)
	for i := 0; i < 10000; i++ {
		v := r.Next()
		if v <= 0 || v >= 1 {
			t.Fatalf("value %v out of (0,1)", v)
		}
	}
}

func TestRandlcSkipZero(t *testing.T) {
	a := NewRand(0)
	b := NewRand(0)
	b.Skip(0)
	if a.Next() != b.Next() {
		t.Fatal("Skip(0) changed the stream")
	}
}

// --- EP ---

func TestEPMatchesSequential(t *testing.T) {
	seq := EPSequential(14)
	for _, threads := range []int{1, 3, 8} {
		withRuntime(t, 8, func(tc exec.TC, rt *omp.Runtime) {
			par := EP(tc, rt, 14, threads)
			// Sums differ in the last bits across thread counts (FP
			// addition is non-associative); counts are exact.
			if math.Abs(par.Sx-seq.Sx) > 1e-9 || math.Abs(par.Sy-seq.Sy) > 1e-9 {
				t.Errorf("threads=%d: sums %v,%v != %v,%v", threads, par.Sx, par.Sy, seq.Sx, seq.Sy)
			}
			if par.Counts != seq.Counts {
				t.Errorf("threads=%d: counts %v != %v", threads, par.Counts, seq.Counts)
			}
		})
	}
}

func TestEPGaussianStatistics(t *testing.T) {
	res := EPSequential(16)
	var accepted int64
	for _, c := range res.Counts {
		accepted += c
	}
	// Polar method acceptance rate is pi/4 of pairs.
	rate := float64(accepted) / float64(res.Pairs)
	if math.Abs(rate-math.Pi/4) > 0.01 {
		t.Fatalf("acceptance rate %v, want ~pi/4", rate)
	}
	// Deviates are ~N(0,1): sums of ~51k samples stay well under 3*sqrt(n).
	bound := 3 * math.Sqrt(float64(2*accepted))
	if math.Abs(res.Sx) > bound || math.Abs(res.Sy) > bound {
		t.Fatalf("sums %v/%v exceed %v", res.Sx, res.Sy, bound)
	}
}

// --- CG ---

func TestCGSolvesSystem(t *testing.T) {
	a := MakeSparse(256, 8, 10)
	withRuntime(t, 4, func(tc exec.TC, rt *omp.Runtime) {
		res := CG(tc, rt, a, 3, 25, 20, 4)
		if res.Iters != 3 {
			t.Errorf("iters = %d", res.Iters)
		}
		if res.RNorm > 1e-6 {
			t.Errorf("CG residual %v too large (SPD system must converge)", res.RNorm)
		}
		if math.IsNaN(res.Zeta) || res.Zeta <= 20 {
			t.Errorf("zeta = %v, want > shift", res.Zeta)
		}
	})
}

func TestCGDeterministicAcrossThreadCounts(t *testing.T) {
	a := MakeSparse(128, 6, 8)
	var z1, z4 float64
	withRuntime(t, 4, func(tc exec.TC, rt *omp.Runtime) {
		z1 = CG(tc, rt, a, 2, 15, 12, 1).Zeta
	})
	withRuntime(t, 4, func(tc exec.TC, rt *omp.Runtime) {
		z4 = CG(tc, rt, a, 2, 15, 12, 4).Zeta
	})
	// Block-static partition keeps per-thread accumulation order stable
	// enough that results agree to near machine precision.
	if math.Abs(z1-z4) > 1e-8*math.Abs(z1) {
		t.Fatalf("zeta differs across thread counts: %v vs %v", z1, z4)
	}
}

func TestSparseMatrixIsSymmetricCSR(t *testing.T) {
	a := MakeSparse(64, 4, 5)
	if a.RowPtr[a.N] != len(a.Val) || len(a.Col) != len(a.Val) {
		t.Fatal("CSR structure inconsistent")
	}
	get := func(i, j int) float64 {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if a.Col[k] == j {
				return a.Val[k]
			}
		}
		return 0
	}
	for i := 0; i < a.N; i += 7 {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.Col[k]
			if math.Abs(a.Val[k]-get(j, i)) > 1e-12 {
				t.Fatalf("asymmetric at (%d,%d)", i, j)
			}
		}
	}
	// Columns ascending per row.
	for i := 0; i < a.N; i++ {
		for k := a.RowPtr[i] + 1; k < a.RowPtr[i+1]; k++ {
			if a.Col[k-1] >= a.Col[k] {
				t.Fatalf("row %d columns not ascending", i)
			}
		}
	}
}

// TestMakeSparseDeterministic: two builds of the same matrix are equal to
// the bit, diagonal included (its row sum once ran over a map, in random
// order).
func TestMakeSparseDeterministic(t *testing.T) {
	a, b := MakeSparse(1<<13, 8, 20), MakeSparse(1<<13, 8, 20)
	if !slices.Equal(a.RowPtr, b.RowPtr) || !slices.Equal(a.Col, b.Col) || len(a.Val) != len(b.Val) {
		t.Fatal("two builds differ in structure")
	}
	for k := range a.Val {
		if math.Float64bits(a.Val[k]) != math.Float64bits(b.Val[k]) {
			t.Fatalf("Val[%d] = %x, then %x", k, math.Float64bits(a.Val[k]), math.Float64bits(b.Val[k]))
		}
	}
}

// --- MG ---

func TestMGReducesResidual(t *testing.T) {
	withRuntime(t, 4, func(tc exec.TC, rt *omp.Runtime) {
		one := MG(tc, rt, 16, 1, 4)
		four := MG(tc, rt, 16, 4, 4)
		if !(four.RNorm < one.RNorm) {
			t.Errorf("V-cycles must reduce residual: 1 cycle %v, 4 cycles %v", one.RNorm, four.RNorm)
		}
	})
}

func TestMGDeterministicAcrossThreads(t *testing.T) {
	var r1, r4 float64
	withRuntime(t, 4, func(tc exec.TC, rt *omp.Runtime) {
		r1 = MG(tc, rt, 16, 2, 1).RNorm
	})
	withRuntime(t, 4, func(tc exec.TC, rt *omp.Runtime) {
		r4 = MG(tc, rt, 16, 2, 4).RNorm
	})
	if math.Abs(r1-r4) > 1e-12 {
		t.Fatalf("MG differs across threads: %v vs %v", r1, r4)
	}
}

func TestGrid3PeriodicIndexing(t *testing.T) {
	g := NewGrid3(4)
	g.Set(0, 0, 0, 7)
	if g.At(4, 4, 4) != 7 || g.At(-4, 0, 0) != 7 {
		t.Fatal("periodic wrap broken")
	}
}

// --- FT ---

func TestFFT1MatchesDFT(t *testing.T) {
	n := 16
	a := make([]complex128, n)
	r := NewRand(0)
	for i := range a {
		a[i] = complex(r.Next(), r.Next())
	}
	want := make([]complex128, n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k*j) / float64(n)
			want[k] += a[j] * cmplx.Exp(complex(0, ang))
		}
	}
	got := append([]complex128(nil), a...)
	fft1(got, -1)
	for k := 0; k < n; k++ {
		if cmplx.Abs(got[k]-want[k]) > 1e-9 {
			t.Fatalf("FFT[%d] = %v, want %v", k, got[k], want[k])
		}
	}
}

func TestFFTRoundTrip(t *testing.T) {
	n := 64
	a := make([]complex128, n)
	r := NewRand(0)
	for i := range a {
		a[i] = complex(r.Next(), r.Next())
	}
	b := append([]complex128(nil), a...)
	fft1(b, -1)
	fft1(b, +1)
	for i := range a {
		if cmplx.Abs(a[i]-b[i]) > 1e-10 {
			t.Fatalf("roundtrip broke at %d", i)
		}
	}
}

func TestFTChecksumsStableAcrossThreads(t *testing.T) {
	var c1, c4 []complex128
	withRuntime(t, 4, func(tc exec.TC, rt *omp.Runtime) {
		c1 = FT(tc, rt, 8, 3, 1).Checksums
	})
	withRuntime(t, 4, func(tc exec.TC, rt *omp.Runtime) {
		c4 = FT(tc, rt, 8, 3, 4).Checksums
	})
	if len(c1) != 3 || len(c4) != 3 {
		t.Fatalf("checksum counts: %d, %d", len(c1), len(c4))
	}
	for i := range c1 {
		if cmplx.Abs(c1[i]-c4[i]) > 1e-9 {
			t.Fatalf("checksum %d differs: %v vs %v", i, c1[i], c4[i])
		}
	}
}

func TestFTEvolutionDecays(t *testing.T) {
	withRuntime(t, 4, func(tc exec.TC, rt *omp.Runtime) {
		res := FT(tc, rt, 8, 4, 4)
		// The exponential filter removes energy; checksum magnitude of
		// later iterations must not grow.
		first := cmplx.Abs(res.Checksums[0])
		last := cmplx.Abs(res.Checksums[len(res.Checksums)-1])
		if last > first*1.0001 {
			t.Errorf("evolution grew: %v -> %v", first, last)
		}
	})
}

// --- IS ---

func TestISSortsAndIsPermutation(t *testing.T) {
	withRuntime(t, 4, func(tc exec.TC, rt *omp.Runtime) {
		res := IS(tc, rt, 1<<14, 1<<9, 4)
		if !res.Sorted {
			t.Error("output not sorted")
		}
	})
}

func TestISDeterministicAcrossThreads(t *testing.T) {
	var s1, s4 uint64
	withRuntime(t, 4, func(tc exec.TC, rt *omp.Runtime) {
		s1 = IS(tc, rt, 1<<12, 1<<8, 1).RankSum
	})
	withRuntime(t, 4, func(tc exec.TC, rt *omp.Runtime) {
		s4 = IS(tc, rt, 1<<12, 1<<8, 4).RankSum
	})
	if s1 != s4 {
		t.Fatalf("rank checksum differs: %d vs %d", s1, s4)
	}
}

// --- BT/SP compact (ADI) ---

func TestSolveTri(t *testing.T) {
	n := 32
	x := make([]float64, n)
	r := NewRand(0)
	for i := range x {
		x[i] = 2*r.Next() - 1
	}
	rhs := append([]float64(nil), x...)
	scratch := make([]float64, 6*n)
	c := 0.3
	solveTri(x, scratch, c)
	// Verify (I + c*L) x = rhs.
	for i := 0; i < n; i++ {
		s := (1 + 2*c) * x[i]
		if i > 0 {
			s -= c * x[i-1]
		}
		if i < n-1 {
			s -= c * x[i+1]
		}
		if math.Abs(s-rhs[i]) > 1e-10 {
			t.Fatalf("tri solve residual at %d: %v", i, s-rhs[i])
		}
	}
}

func TestSolvePenta(t *testing.T) {
	n := 40
	x := make([]float64, n)
	r := NewRand(0)
	for i := range x {
		x[i] = 2*r.Next() - 1
	}
	rhs := append([]float64(nil), x...)
	scratch := make([]float64, 6*n)
	c := 0.2
	solvePenta(x, scratch, c)
	for i := 0; i < n; i++ {
		s := (1 + 6*c) * x[i]
		if i >= 1 {
			s += -4 * c * x[i-1]
		}
		if i+1 < n {
			s += -4 * c * x[i+1]
		}
		if i >= 2 {
			s += c * x[i-2]
		}
		if i+2 < n {
			s += c * x[i+2]
		}
		if math.Abs(s-rhs[i]) > 1e-9 {
			t.Fatalf("penta solve residual at %d: %v", i, s-rhs[i])
		}
	}
}

func TestADIDiffusionSmooths(t *testing.T) {
	withRuntime(t, 4, func(tc exec.TC, rt *omp.Runtime) {
		short := BTCompact(tc, rt, 12, 1, 4)
		long := BTCompact(tc, rt, 12, 6, 4)
		if !(long.MaxAbs < short.MaxAbs) {
			t.Errorf("diffusion must shrink max-norm: %v -> %v", short.MaxAbs, long.MaxAbs)
		}
	})
}

func TestADIDeterministicAcrossThreads(t *testing.T) {
	var a, b ADIResult
	withRuntime(t, 4, func(tc exec.TC, rt *omp.Runtime) {
		a = SPCompact(tc, rt, 10, 3, 1)
	})
	withRuntime(t, 4, func(tc exec.TC, rt *omp.Runtime) {
		b = SPCompact(tc, rt, 10, 3, 4)
	})
	if math.Abs(a.Sum-b.Sum) > 1e-9 || math.Abs(a.MaxAbs-b.MaxAbs) > 1e-12 {
		t.Fatalf("ADI differs across threads: %+v vs %+v", a, b)
	}
}

// --- LU compact ---

func TestLUSSORConverges(t *testing.T) {
	withRuntime(t, 4, func(tc exec.TC, rt *omp.Runtime) {
		res := LUCompactRun(tc, rt, 12, 60, 1.5, 4)
		if !(res.RNorm < res.RNorm0/5) {
			t.Errorf("SSOR barely converged: %v -> %v", res.RNorm0, res.RNorm)
		}
	})
}

func TestLUDeterministicAcrossThreads(t *testing.T) {
	var a, b LUResult
	withRuntime(t, 4, func(tc exec.TC, rt *omp.Runtime) {
		a = LUCompactRun(tc, rt, 10, 6, 1.1, 1)
	})
	withRuntime(t, 4, func(tc exec.TC, rt *omp.Runtime) {
		b = LUCompactRun(tc, rt, 10, 6, 1.1, 4)
	})
	// Red-black ordering is independent of the thread count.
	if math.Abs(a.RNorm-b.RNorm) > 1e-12 {
		t.Fatalf("SSOR differs across threads: %v vs %v", a.RNorm, b.RNorm)
	}
}
