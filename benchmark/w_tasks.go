package main

import (
	"hash/fnv"
	"math/rand"

	komp "github.com/interweaving/komp"
	"github.com/interweaving/komp/internal/omp"
)

// task_graphs: one op is one region in which a Single producer builds
// four task graphs, in a seed-permuted order: a flood of independent
// tasks, a recursive fib, a taskloop and a depend wavefront. Every op
// builds all four, so every op does the same work.
const (
	tgFlood = iota
	tgFib
	tgTaskloop
	tgWavefront
	numTaskGraphs
)

const (
	floodTasks   = 4096
	fibN         = 18
	fibValue     = 2584
	taskloopN    = 8192
	taskloopGr   = 64
	waveN        = 32
	waveMod      = 1_000_003
	taskOrders   = 11
	sampleEvery  = 64 // one task in 64 is stamped in a traced run
	floodSamples = floodTasks / sampleEvery
)

type taskInst struct {
	threads int
	o       *komp.OMP
	orders  [][]uint8
	hash    uint64

	tr     *tracer
	opID   uint32
	parent spanID
	order  []uint8

	workers   []*omp.Worker
	producers [][numTaskGraphs]func() // [thread][graph]
	body      func(*omp.Worker)

	producer int // thread that is building the current graph
	hits     []int32
	floodFns []func(*omp.Worker)
	spawnRet [floodSamples]int64
	runStart [floodSamples]int64
	ran      []padCount // tasks executed per thread
	remote   []padCount // of those, created by another thread
	tlHits   []int32
	tlBody   func(*omp.Worker, int)
	grid     [waveN][waveN]int64
	waveRef  [waveN][waveN]int64
	waveFns  [waveN][waveN]func(*omp.Worker)
	waveDeps [waveN][waveN][]omp.Dep
	fibGot   int64
	fibWant  int64
	graphsOK [numTaskGraphs]bool
}

func waveCell(up, left int64) int64 { return (up*31 + left*17 + 1) % waveMod }

func setupTasks(seed int64, threads int) instance {
	s := &taskInst{
		threads: threads, o: komp.New(threads), fibWant: fibValue,
		workers: make([]*omp.Worker, threads), producers: make([][numTaskGraphs]func(), threads),
		hits: make([]int32, floodTasks), tlHits: make([]int32, taskloopN),
		ran: make([]padCount, threads), remote: make([]padCount, threads),
	}
	rng := rand.New(rand.NewSource(seed))
	h := fnv.New64a()
	for r := 0; r < taskOrders; r++ {
		order := []uint8{tgFlood, tgFib, tgTaskloop, tgWavefront}
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		s.orders = append(s.orders, order)
		h.Write(order)
	}
	s.hash = h.Sum64()

	for j := 0; j < floodTasks; j++ {
		s.floodFns = append(s.floodFns, func(w *omp.Worker) {
			if s.tr != nil && j%sampleEvery == 0 {
				s.runStart[j/sampleEvery] = s.tr.now()
			}
			s.hits[j]++
			s.count(w)
		})
	}
	s.tlBody = func(w *omp.Worker, i int) { s.tlHits[i]++ }
	for i := 0; i < waveN; i++ {
		for j := 0; j < waveN; j++ {
			var up, left int64
			deps := []omp.Dep{omp.Out(&s.grid[i][j])}
			if i > 0 {
				up = s.waveRef[i-1][j]
				deps = append(deps, omp.In(&s.grid[i-1][j]))
			}
			if j > 0 {
				left = s.waveRef[i][j-1]
				deps = append(deps, omp.In(&s.grid[i][j-1]))
			}
			s.waveRef[i][j] = waveCell(up, left)
			s.waveDeps[i][j] = deps
			s.waveFns[i][j] = func(w *omp.Worker) {
				var up, left int64
				if i > 0 {
					up = s.grid[i-1][j]
				}
				if j > 0 {
					left = s.grid[i][j-1]
				}
				s.grid[i][j] = waveCell(up, left)
				s.count(w)
			}
		}
	}
	for t := 0; t < threads; t++ {
		for g := 0; g < numTaskGraphs; g++ {
			s.producers[t][g] = func() { s.graphsOK[g] = s.build(g, s.workers[t]) }
		}
	}
	s.body = func(w *omp.Worker) {
		tn := w.ThreadNum()
		s.workers[tn] = w
		b := s.tr.beginArg(1+tn, spBody, s.opID, 0, s.parent, tn)
		for _, g := range s.order {
			w.Single(false, s.producers[tn][g])
		}
		s.tr.end(b)
	}
	return s
}

// count notes which thread ran a task of the graph being built.
func (s *taskInst) count(w *omp.Worker) {
	tn := w.ThreadNum()
	s.ran[tn].n++
	if tn != s.producer {
		s.remote[tn].n++
	}
}

func (s *taskInst) fib(w *omp.Worker, n int, out *int64) {
	if n < 2 {
		*out = int64(n)
		return
	}
	var a, b int64
	w.Task(func(w *omp.Worker) { s.fib(w, n-1, &a) })
	w.Task(func(w *omp.Worker) { s.fib(w, n-2, &b) })
	w.Taskwait()
	*out = a + b
}

// build is the Single producer: it creates graph g on w, waits for it
// and verifies its output.
func (s *taskInst) build(g int, w *omp.Worker) bool {
	tr, slot := s.tr, 1+w.ThreadNum()
	s.producer = w.ThreadNum()
	switch g {
	case tgFlood:
		for j := range s.hits {
			s.hits[j] = 0
		}
		sp := tr.begin(slot, spFlood, s.opID, g, s.parent)
		for j, fn := range s.floodFns {
			if tr != nil && j%sampleEvery == 0 {
				c := tr.begin(slot, spTaskSpawn, s.opID, j, sp)
				w.Task(fn)
				tr.end(c)
				s.spawnRet[j/sampleEvery] = tr.now()
				continue
			}
			w.Task(fn)
		}
		tw := tr.begin(slot, spTaskwait, s.opID, g, sp)
		w.Taskwait()
		tr.end(tw)
		tr.end(sp)
		if tr != nil {
			for k := range s.spawnRet {
				// A task that started before Task returned waited zero.
				tr.add(slot, spTaskRun, s.opID, k, sp, s.spawnRet[k], max(s.runStart[k], s.spawnRet[k]))
			}
		}
		for _, v := range s.hits {
			if v != 1 {
				return false
			}
		}
	case tgFib:
		sp := tr.begin(slot, spFib, s.opID, g, s.parent)
		s.fibGot = -1
		s.fib(w, fibN, &s.fibGot)
		tr.end(sp)
		return s.fibGot == s.fibWant
	case tgTaskloop:
		for j := range s.tlHits {
			s.tlHits[j] = 0
		}
		sp := tr.begin(slot, spTaskloop, s.opID, g, s.parent)
		w.Taskloop(0, taskloopN, omp.TaskloopOpt{Grainsize: taskloopGr}, s.tlBody)
		tr.end(sp)
		for _, v := range s.tlHits {
			if v != 1 {
				return false
			}
		}
	case tgWavefront:
		s.grid = [waveN][waveN]int64{}
		sp := tr.begin(slot, spWavefront, s.opID, g, s.parent)
		for i := 0; i < waveN; i++ {
			for j := 0; j < waveN; j++ {
				w.TaskWith(omp.TaskOpt{Depend: s.waveDeps[i][j]}, s.waveFns[i][j])
			}
		}
		tw := tr.begin(slot, spTaskwait, s.opID, g, sp)
		w.Taskwait()
		tr.end(tw)
		tr.end(sp)
		return s.grid == s.waveRef
	}
	return true
}

func (s *taskInst) clients() int { return 1 }

func (s *taskInst) slots() []string { return slotNames(1, s.threads) }

func (s *taskInst) op(_ int, i uint32, tr *tracer) bool {
	s.tr, s.opID = tr, i
	s.order = s.orders[int(i)%len(s.orders)]
	s.graphsOK = [numTaskGraphs]bool{}
	opSpan := tr.begin(0, spOp, i, 0, 0)
	s.parent = tr.begin(0, spRegion, i, 0, opSpan)
	s.o.Parallel(s.threads, s.body)
	tr.end(s.parent)
	tr.end(opSpan)
	return s.graphsOK == [numTaskGraphs]bool{true, true, true, true}
}

func (s *taskInst) seqHash() uint64 { return s.hash }
func (s *taskInst) corrupt()        { s.fibWant++ }
func (s *taskInst) close()          { s.o.Close() }

func (s *taskInst) layers(tr *tracer, traced *phase, out metricSet) {
	p50 := func(kind spanKind) float64 { return median(tr.durs(kind, nil)) }
	out.set("omp.task_spawn_ns_p50", p50(spTaskSpawn))
	out.set("omp.taskwait_us_p50", p50(spTaskwait)/1e3)
	out.set("omp.task_run_delay_us_p50", p50(spTaskRun)/1e3)
	out.set("omp.flood_tasks_per_s", floodTasks/(p50(spFlood)/1e9))
	out.set("omp.fib_ms_p50", p50(spFib)/1e6)
	out.set("omp.taskloop_ms_p50", p50(spTaskloop)/1e6)
	out.set("omp.depend_wavefront_ms_p50", p50(spWavefront)/1e6)
	var ran, remote int64
	for t := range s.ran {
		ran += s.ran[t].n
		remote += s.remote[t].n
	}
	out.set("omp.tasks_remote_frac", float64(remote)/float64(ran))
}
