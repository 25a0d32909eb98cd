package main

import (
	"hash/fnv"
	"math"
	"math/rand"
	"sync/atomic"
	"time"

	komp "github.com/interweaving/komp"
	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/nas"
	"github.com/interweaving/komp/internal/omp"
)

// loop_kernels: one op is one pass over four verified NAS kernels and a
// skewed-cost dynamic loop through the public komp.ParallelFor, in a
// seed-permuted order. The bodies are all of the time. The arrays are
// cache-sized, so no bandwidth or roofline figure is claimed. The seed
// permutes order and chunk only: every seed does the same total work.
const (
	lkEP = iota
	lkCG
	lkMG
	lkIS
	lkDyn
	numLoopKernels
)

const (
	epLog2      = 20
	cgN, cgNZ   = 1 << 13, 8
	cgShift     = 20.0
	cgIters     = 2
	cgInner     = 10
	mgN, mgIter = 32, 2
	isKeys      = 1 << 18
	isMaxKey    = 1 << 11
	dynIters    = 2048
	dynUnit     = 96 // inner-loop trips per cost unit
	loopOrders  = 7
	relTol      = 1e-10
)

type loopRef struct {
	ep     nas.EPResult
	cg     nas.CGResult
	mg     nas.MGResult
	is     nas.ISResult
	dynSum float64
	ms     [numLoopKernels]float64 // 1-thread times, the serial baseline
}

type loopInst struct {
	threads int
	layer   *exec.RealLayer
	rt      *omp.Runtime
	tc      exec.TC
	o       *komp.OMP
	a       *nas.SparseMatrix
	orders  [][]uint8
	chunk   int
	cost    []uint8
	out     []float64
	dynBody func(int)
	busy    atomic.Int64 // ns inside dynBody, traced runs only
	timed   bool
	ref     loopRef
	hash    uint64
}

func setupLoops(seed int64, threads int) instance {
	l := &loopInst{threads: threads, out: make([]float64, dynIters)}
	l.layer = exec.NewRealLayer(threads)
	l.rt = omp.New(l.layer, omp.Options{MaxThreads: threads, Bind: true})
	l.tc = l.layer.TC()
	l.o = komp.New(threads)
	l.a = nas.MakeSparse(cgN, cgNZ, cgShift)

	// A fixed multiset of iteration costs (one in eight iterations is
	// sixteen times dearer), placed by the seed.
	l.cost = make([]uint8, dynIters)
	for j := range l.cost {
		l.cost[j] = 1
		if j%8 == 0 {
			l.cost[j] = 16
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(dynIters, func(i, j int) { l.cost[i], l.cost[j] = l.cost[j], l.cost[i] })
	l.chunk = 1 << rng.Intn(4)
	h := fnv.New64a()
	h.Write(l.cost)
	h.Write([]byte{uint8(l.chunk)})
	for r := 0; r < loopOrders; r++ {
		order := []uint8{lkEP, lkCG, lkMG, lkIS, lkDyn}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		l.orders = append(l.orders, order)
		h.Write(order)
	}
	l.hash = h.Sum64()

	l.dynBody = func(j int) {
		var t0 time.Time
		if l.timed {
			t0 = time.Now()
		}
		x := float64(j + 1)
		for k := int(l.cost[j]) * dynUnit; k > 0; k-- {
			x = math.Sqrt(x*x+1) * 0.999
		}
		l.out[j] = x
		if l.timed {
			l.busy.Add(int64(time.Since(t0)))
		}
	}

	// The same pass at one thread is both the expected output and the
	// serial baseline.
	for k := 0; k < numLoopKernels; k++ {
		start := time.Now()
		l.kernel(k, 1, &l.ref)
		l.ref.ms[k] = float64(time.Since(start)) / 1e6
	}
	return l
}

// kernel runs kernel k on n threads and stores its output in into.
func (l *loopInst) kernel(k, n int, into *loopRef) {
	switch k {
	case lkEP:
		into.ep = nas.EP(l.tc, l.rt, epLog2, n)
	case lkCG:
		into.cg = nas.CG(l.tc, l.rt, l.a, cgIters, cgInner, cgShift, n)
	case lkMG:
		into.mg = nas.MG(l.tc, l.rt, mgN, mgIter, n)
	case lkIS:
		into.is = nas.IS(l.tc, l.rt, isKeys, isMaxKey, n)
	case lkDyn:
		for j := range l.out {
			l.out[j] = 0
		}
		l.o.ParallelFor(n, 0, dynIters, omp.ForOpt{Sched: omp.Dynamic, Chunk: l.chunk}, l.dynBody)
		into.dynSum = 0
		for _, v := range l.out {
			into.dynSum += v
		}
	}
}

func closeTo(got, want float64) bool {
	return math.Abs(got-want) <= relTol*math.Abs(want)
}

func (l *loopInst) verify(k int, got *loopRef) bool {
	ref := &l.ref
	switch k {
	case lkEP:
		return got.ep.Counts == ref.ep.Counts && closeTo(got.ep.Sx, ref.ep.Sx) && closeTo(got.ep.Sy, ref.ep.Sy)
	case lkCG:
		return closeTo(got.cg.Zeta, ref.cg.Zeta)
	case lkMG:
		return closeTo(got.mg.RNorm, ref.mg.RNorm)
	case lkIS:
		return got.is.Sorted && got.is.RankSum == ref.is.RankSum
	default:
		return got.dynSum == ref.dynSum
	}
}

var loopSpanKinds = [numLoopKernels]spanKind{spKernelEP, spKernelCG, spKernelMG, spKernelIS, spDynLoop}

func (l *loopInst) clients() int    { return 1 }
func (l *loopInst) slots() []string { return []string{"client"} }

func (l *loopInst) op(_ int, i uint32, tr *tracer) bool {
	l.timed = tr != nil
	opSpan := tr.begin(0, spOp, i, 0, 0)
	ok := true
	var got loopRef
	for seq, k := range l.orders[int(i)%len(l.orders)] {
		sp := tr.begin(0, loopSpanKinds[k], i, seq, opSpan)
		l.kernel(int(k), l.threads, &got)
		tr.end(sp)
		ok = l.verify(int(k), &got) && ok
	}
	tr.end(opSpan)
	return ok
}

func (l *loopInst) seqHash() uint64 { return l.hash }
func (l *loopInst) corrupt()        { l.ref.is.RankSum++ }

func (l *loopInst) close() {
	l.o.Close()
	l.rt.Close(l.tc)
}

func (l *loopInst) layers(tr *tracer, traced *phase, out metricSet) {
	ms := func(kind spanKind) float64 { return median(tr.durs(kind, nil)) / 1e6 }
	out.set("nas.ep_ms_p50", ms(spKernelEP))
	out.set("nas.cg_ms_p50", ms(spKernelCG))
	out.set("nas.mg_ms_p50", ms(spKernelMG))
	out.set("nas.is_ms_p50", ms(spKernelIS))
	out.set("komp.dynloop_ms_p50", ms(spDynLoop))
	out.set("nas.speedup_vs_serial.ep", l.ref.ms[lkEP]/ms(spKernelEP))
	out.set("nas.speedup_vs_serial.cg", l.ref.ms[lkCG]/ms(spKernelCG))
	var loopNS float64
	for _, d := range tr.durs(spDynLoop, nil) {
		loopNS += d
	}
	out.set("omp.body_frac", float64(l.busy.Load())/(float64(l.threads)*loopNS))
}
