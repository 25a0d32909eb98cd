package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync/atomic"

	komp "github.com/interweaving/komp"
	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/omp"
)

// sync_regions: one op is one round of 64 EPCC-SYNCH-style regions with
// empty bodies, in a seed-permuted order, through the public komp API on
// the real layer. The multiset of regions is fixed, so every round does
// the same work and the median latency is of one population.
const (
	skEmpty    = iota // empty Parallel
	skPubFor          // komp.ParallelFor, static, 256 elements
	skFor             // Parallel + Worker.ForEach, static, 256 elements
	skBarriers        // Parallel + 8 Barriers
	skReduce          // Parallel + Reduce
	skCritical        // Parallel + 4 Critical
	skSingle          // Parallel + Single
	numSyncKinds
)

var syncKindCount = [numSyncKinds]int{16, 6, 6, 8, 10, 8, 10}

const (
	syncRoundLen    = 64
	syncForLen      = 256
	syncBarriers    = 8
	syncCriticals   = 4
	syncRoundOrders = 61 // distinct permutations cycled through; prime, so orders do not align with segments
)

type padCount struct {
	n int64
	_ [56]byte
}

type padAtomic struct {
	n atomic.Int64
	_ [56]byte
}

type syncInst struct {
	threads int
	par     func(n int, fn func(*omp.Worker))
	parFor  func(n, lo, hi int, opt omp.ForOpt, body func(int))
	closeFn func()
	rt      *omp.Runtime
	rounds  [][]uint8
	hash    uint64
	regions int64 // regions forked since set-up

	// The region in flight, written by the client before the fork and
	// read by the workers after it.
	tr     *tracer
	opID   uint32
	seq    int
	parent spanID

	runs         []padCount // body executions per thread, this round
	phase        []padAtomic
	arr          []int32
	crit, single int64
	expectReduce float64
	bad          atomic.Bool
	bodies       [numSyncKinds]func(*omp.Worker)
	forBody      func(int)
}

func setupSync(seed int64, threads int) instance {
	o := komp.New(threads)
	return newSyncInst(seed, threads, o.Parallel, o.ParallelFor, o.Close)
}

// newSyncDirect builds the same workload over an omp.Runtime used
// directly, which is the only way to attach an instrumentation spine.
func newSyncDirect(seed int64, threads int, opts omp.Options) *syncInst {
	layer := exec.NewRealLayer(threads)
	opts.MaxThreads, opts.Bind = threads, true
	rt := omp.New(layer, opts)
	tc := layer.TC()
	par := func(n int, fn func(*omp.Worker)) { rt.Parallel(tc, n, fn) }
	parFor := func(n, lo, hi int, opt omp.ForOpt, body func(int)) {
		rt.Parallel(tc, n, func(w *omp.Worker) { w.ForEach(lo, hi, opt, body) })
	}
	return newSyncInst(seed, threads, par, parFor, func() { rt.Close(tc) })
}

func newSyncInst(seed int64, threads int, par func(int, func(*omp.Worker)),
	parFor func(int, int, int, omp.ForOpt, func(int)), closeFn func()) *syncInst {
	s := &syncInst{
		threads: threads, par: par, parFor: parFor, closeFn: closeFn,
		runs: make([]padCount, threads), phase: make([]padAtomic, threads),
		arr:          make([]int32, syncForLen),
		expectReduce: float64(threads*(threads+1)) / 2,
	}
	rng := rand.New(rand.NewSource(seed))
	var base []uint8
	for k, n := range syncKindCount {
		for j := 0; j < n; j++ {
			base = append(base, uint8(k))
		}
	}
	h := fnv.New64a()
	for r := 0; r < syncRoundOrders; r++ {
		order := append([]uint8(nil), base...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		s.rounds = append(s.rounds, order)
		h.Write(order)
	}
	s.hash = h.Sum64()

	s.forBody = func(j int) { s.arr[j]++ }
	critFn := func() { s.crit++ }
	singleFn := func() { s.single++ }
	s.bodies[skEmpty] = func(w *omp.Worker) { s.bodyEnd(s.bodyBegin(w)) }
	s.bodies[skFor] = func(w *omp.Worker) {
		b := s.bodyBegin(w)
		c := s.construct(w, spForStatic, 0, b)
		w.ForEach(0, syncForLen, omp.ForOpt{Sched: omp.Static}, s.forBody)
		s.tr.end(c)
		s.bodyEnd(b)
	}
	s.bodies[skBarriers] = func(w *omp.Worker) {
		b := s.bodyBegin(w)
		tn := w.ThreadNum()
		base := s.phase[tn].n.Load()
		for k := 1; k <= syncBarriers; k++ {
			s.phase[tn].n.Store(base + int64(k))
			c := s.construct(w, spBarrier, k, b)
			w.Barrier()
			s.tr.end(c)
			for t := range s.phase {
				if s.phase[t].n.Load() < base+int64(k) {
					s.bad.Store(true)
				}
			}
		}
		s.bodyEnd(b)
	}
	s.bodies[skReduce] = func(w *omp.Worker) {
		b := s.bodyBegin(w)
		c := s.construct(w, spReduce, 0, b)
		sum := w.Reduce(omp.ReduceSum, float64(w.ThreadNum()+1))
		s.tr.end(c)
		if sum != s.expectReduce {
			s.bad.Store(true)
		}
		s.bodyEnd(b)
	}
	s.bodies[skCritical] = func(w *omp.Worker) {
		b := s.bodyBegin(w)
		for k := 0; k < syncCriticals; k++ {
			c := s.construct(w, spCritical, k, b)
			w.Critical("bench", critFn)
			s.tr.end(c)
		}
		s.bodyEnd(b)
	}
	s.bodies[skSingle] = func(w *omp.Worker) {
		b := s.bodyBegin(w)
		c := s.construct(w, spSingle, 0, b)
		w.Single(false, singleFn)
		s.tr.end(c)
		s.bodyEnd(b)
	}
	s.par(threads, func(w *omp.Worker) {
		if w.ThreadNum() == 0 {
			s.rt = w.Runtime()
		}
	})
	return s
}

// bodyBegin is the first line of every worker body, bodyEnd the last.
func (s *syncInst) bodyBegin(w *omp.Worker) spanID {
	tn := w.ThreadNum()
	s.runs[tn].n++
	return s.tr.beginArg(1+tn, spBody, s.opID, s.seq<<4, s.parent, tn)
}

func (s *syncInst) bodyEnd(b spanID) { s.tr.end(b) }

func (s *syncInst) construct(w *omp.Worker, kind spanKind, k int, body spanID) spanID {
	return s.tr.begin(1+w.ThreadNum(), kind, s.opID, s.seq<<4|k, body)
}

func (s *syncInst) clients() int { return 1 }

func (s *syncInst) slots() []string { return slotNames(1, s.threads) }

func (s *syncInst) op(_ int, i uint32, tr *tracer) bool {
	order := s.rounds[int(i)%len(s.rounds)]
	for t := range s.runs {
		s.runs[t].n = 0
	}
	for j := range s.arr {
		s.arr[j] = 0
	}
	s.crit, s.single = 0, 0
	s.bad.Store(false)
	s.tr, s.opID = tr, i
	opSpan := tr.begin(0, spOp, i, 0, 0)
	for seq, kind := range order {
		s.seq = seq
		s.parent = tr.begin(0, spRegion, i, seq<<4, opSpan)
		if kind == skPubFor {
			s.parFor(s.threads, 0, syncForLen, omp.ForOpt{Sched: omp.Static}, s.forBody)
		} else {
			s.par(s.threads, s.bodies[kind])
		}
		tr.end(s.parent)
	}
	tr.end(opSpan)
	s.regions += syncRoundLen

	var runs int64
	for t := range s.runs {
		runs += s.runs[t].n
	}
	ok := runs == int64((syncRoundLen-syncKindCount[skPubFor])*s.threads) &&
		s.crit == int64(syncKindCount[skCritical]*syncCriticals*s.threads) &&
		s.single == int64(syncKindCount[skSingle]) &&
		!s.bad.Load()
	for _, v := range s.arr {
		ok = ok && v == int32(syncKindCount[skPubFor]+syncKindCount[skFor])
	}
	return ok
}

func (s *syncInst) seqHash() uint64 { return s.hash }
func (s *syncInst) corrupt()        { s.expectReduce++ }
func (s *syncInst) close()          { s.closeFn() }

func (s *syncInst) layers(tr *tracer, traced *phase, out metricSet) {
	fjs := tr.forkJoins()
	var fork, forkLast, join []float64
	for _, fj := range fjs {
		fork = append(fork, fj.fork)
		forkLast = append(forkLast, fj.forkLast)
		join = append(join, fj.join)
	}
	out.set("omp.fork_us_p50", median(fork)/1e3)
	out.set("omp.fork_last_us_p50", median(forkLast)/1e3)
	out.set("omp.join_us_p50", median(join)/1e3)
	out.set("omp.barrier_us_p50", median(tr.maxPerCall(spBarrier))/1e3)
	out.set("omp.for_static_us_p50", median(tr.maxPerCall(spForStatic))/1e3)
	out.set("omp.reduce_us_p50", median(tr.maxPerCall(spReduce))/1e3)
	out.set("omp.critical_us_p50", median(tr.maxPerCall(spCritical))/1e3)
	out.set("omp.single_us_p50", median(tr.maxPerCall(spSingle))/1e3)
	builds := float64(s.rt.TeamBuilds())
	out.set("omp.team_builds", builds)
	out.set("omp.hot_team_hit_ratio", 1-builds/float64(s.regions+1))
}

// slotNames names the tracer's buffers: one per client, then each
// client's worker threads.
func slotNames(clients, threads int) []string {
	var names []string
	for c := 0; c < clients; c++ {
		names = append(names, fmt.Sprintf("client%d", c))
	}
	for c := 0; c < clients; c++ {
		for t := 0; t < threads; t++ {
			names = append(names, fmt.Sprintf("client%d.worker%d", c, t))
		}
	}
	return names
}
