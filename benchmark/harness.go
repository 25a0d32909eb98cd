package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"
)

// instance is one set-up of a workload: the program's runtime objects,
// the inputs generated from the seed and the expected outputs.
type instance interface {
	// clients is the number of closed-loop client goroutines; it never
	// exceeds threads.
	clients() int
	// slots names the tracer's buffers: one per client, then the worker
	// threads each client's regions run on.
	slots() []string
	// op runs client's i-th operation and verifies its output.
	op(client int, i uint32, tr *tracer) bool
	// seqHash digests the generated inputs and op sequence.
	seqHash() uint64
	// corrupt spoils one expected value, so that every later op must
	// fail verification; the self-tests use it to prove that ops are checked.
	corrupt()
	// layers derives the workload's per-layer numbers from a traced phase.
	layers(tr *tracer, traced *phase, out metricSet)
	close()
}

type workload struct {
	name, why string
	// warmOps is how many ops the warm-up runs per client: enough to
	// cache the hot teams and start the pools, and counted in ops rather
	// than seconds so that setup_s follows the program's speed.
	warmOps int
	setup   func(seed int64, threads int) instance
}

var workloads = []workload{
	{"sync_regions", "empty-body fork/barrier/reduce/critical/single rounds: fork, dispatch, barrier and the real-layer futex are all of the time", 300, setupSync},
	{"loop_kernels", "body-dominated NAS EP/CG/MG/IS and a skewed dynamic loop: sync is <1%, so sync-path changes predict no change and spinning shows as stolen cycles", 2, setupLoops},
	{"task_graphs", "task flood, recursive fib, taskloop and a depend wavefront: deque push/steal and single-waiter wake instead of team fork and barrier release", 20, setupTasks},
	{"tenant_submit", "tenants submitting small regions through one service: the only path through admission, lease and fork under cross-tenant contention", 3000, setupTenants},
	{"des_regen", "figure cells regenerated on the simulator (EPCC, NAS models, VIRGIL, device): the only workload on the DES clock; real-layer changes predict no change", 1, setupDES},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// benchThreads is the team size every workload uses; results compare
// only at equal threads.
func benchThreads() int { return min(runtime.GOMAXPROCS(0), 4) }

type runConfig struct {
	seed     int64
	threads  int
	segments int
	segDur   time.Duration
	setups   int  // set-up runs this many times; setup_s is their median
	quick    bool // the self-tests: probes loop a quarter as often
}

// segment is one back-to-back slice of the measured phase.
type segment struct {
	Ops       int     `json:"ops"`
	Failed    int     `json:"failed"`
	OpsPerS   float64 `json:"ops_per_s"`
	CPUMSOp   float64 `json:"cpu_ms_per_op"`
	perClient []int
}

// phase is a run of segments over one instance, with every op's latency.
type phase struct {
	segs      []segment
	lat       []float64 // ns, all clients; filled in after the last segment
	perClient []int
}

func (p *phase) ops() (n, failed int) {
	for _, s := range p.segs {
		n += s.Ops
		failed += s.Failed
	}
	return
}

func (p *phase) latMS() []float64 {
	out := make([]float64, len(p.lat))
	for i, v := range p.lat {
		out[i] = v / 1e6
	}
	return out
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// runSegment drives every client closed-loop for dur: a client issues
// its next op when the previous one returns. A segment ends at an op
// boundary, and its rate is ops over the time those ops really took, so
// long ops do not quantise it. next[c] is client c's next op index.
func runSegment(inst instance, dur time.Duration, tr *tracer, next []uint32, lat [][]float32) segment {
	nc := inst.clients()
	seg := segment{perClient: make([]int, nc)}
	failed := make([]int, nc)
	rates := make([]float64, nc)
	cpu0 := cpuTime()
	var wg sync.WaitGroup
	for c := 0; c < nc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			l := lat[c]
			i := next[c]
			start := time.Now()
			prev := start
			for {
				ok := inst.op(c, i, tr)
				i++
				now := time.Now()
				l = append(l, float32(now.Sub(prev)))
				prev = now
				if !ok {
					failed[c]++
				}
				if now.Sub(start) >= dur || (tr != nil && tr.nearFull()) {
					break
				}
			}
			seg.perClient[c] = int(i - next[c])
			rates[c] = float64(i-next[c]) / prev.Sub(start).Seconds()
			next[c] = i
			lat[c] = l
		}(c)
	}
	wg.Wait()
	cpu := cpuTime() - cpu0
	for c := 0; c < nc; c++ {
		seg.Ops += seg.perClient[c]
		seg.Failed += failed[c]
		seg.OpsPerS += rates[c]
	}
	seg.CPUMSOp = float64(cpu) / 1e6 / float64(seg.Ops)
	return seg
}

// runPhase runs n segments and gathers the latencies. expectOps sizes
// the sample buffers so that they do not grow inside the phase; samples
// are float32 nanoseconds so that the buffers stay a small part of the
// process's memory. done, if not nil, runs right after the last segment,
// before the samples are copied for analysis.
func runPhase(inst instance, n int, dur time.Duration, tr *tracer, next []uint32, expectOps int, done func()) *phase {
	nc := inst.clients()
	lat := make([][]float32, nc)
	for c := range lat {
		lat[c] = make([]float32, 0, expectOps/nc+1024)
	}
	p := &phase{perClient: make([]int, nc)}
	for s := 0; s < n; s++ {
		seg := runSegment(inst, dur, tr, next, lat)
		p.segs = append(p.segs, seg)
		for c, k := range seg.perClient {
			p.perClient[c] += k
		}
		if tr != nil && tr.nearFull() {
			break
		}
	}
	if done != nil {
		done()
	}
	for _, l := range lat {
		for _, v := range l {
			p.lat = append(p.lat, float64(v))
		}
	}
	return p
}

// warmUp runs the workload's warm-up ops and returns the op rate seen,
// which sizes the sample buffers.
func warmUp(w workload, inst instance, next []uint32) float64 {
	nc := inst.clients()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < nc; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < w.warmOps; k++ {
				inst.op(c, next[c], nil)
				next[c]++
			}
		}(c)
	}
	wg.Wait()
	return float64(w.warmOps*nc) / time.Since(start).Seconds()
}

// calibrate times a fixed single-goroutine loop, as the fastest of the
// repetitions that fit in a tenth of a second (an idle host clocks up
// over the first of them). It is run right before and right after the
// measured phase: when the two differ the host changed speed under the
// measurement and the run is marked noisy.
func calibrate() int64 {
	best := int64(1 << 62)
	for begin := time.Now(); time.Since(begin) < 100*time.Millisecond; {
		x := uint64(88172645463325252)
		start := time.Now()
		for i := 0; i < 6_000_000; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		d := int64(time.Since(start))
		if x == 0 {
			d++
		}
		best = min(best, d)
	}
	return best
}

// workloadResult is everything one untraced run of a workload yields.
type workloadResult struct {
	Workload   string    `json:"workload"`
	Seed       int64     `json:"seed"`
	Threads    int       `json:"threads"`
	Clients    int       `json:"clients"`
	SeqHash    string    `json:"op_sequence_hash"`
	Noisy      bool      `json:"noisy"`
	HostCalib  [2]int64  `json:"host_calib_ns"`
	Attempted  int       `json:"attempted"`
	Failed     int       `json:"failed"`
	FailedFrac float64   `json:"failed_frac"`
	SlowOps    int       `json:"slow_ops"`
	Samples    int       `json:"samples"`
	TailP      float64   `json:"op_ms_tail_percentile"`
	SetupS     []float64 `json:"setup_s_runs"`
	Segments   []segment `json:"segments"`
	Metrics    metricSet `json:"metrics"`
	// Spread is (max-min)/median over the segments, for the metrics
	// that are medians of per-segment values.
	Spread map[string]float64 `json:"segment_spread"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects metrics by name.
type metricSet map[string]metric

func (m metricSet) set(name string, v float64) {
	m[name] = metric{Value: v, Unit: unitOf(name)}
}

// An op slower than slowFactor medians, and than slowFloor, is counted
// as slow: a stall that long is a lost wake-up, a starved waiter or a
// descheduled vCPU, not work. Slow ops are recorded, not failed: on a
// shared host one run in thirty has one, whatever the program does, and
// an op that never returns is caught by the caller's time limit.
const (
	slowFactor = 100
	slowFloor  = 100.0 // ms
)

// runUntraced is the measured run: set-up (several times, for a steady
// setup_s), then the segments with tracing off.
func runUntraced(w workload, cfg runConfig) *workloadResult {
	res := &workloadResult{Workload: w.name, Seed: cfg.seed, Threads: cfg.threads, Metrics: metricSet{}}

	var inst instance
	var next []uint32
	var rate float64
	for k := 0; k < cfg.setups; k++ {
		if inst != nil {
			inst.close()
		}
		start := time.Now()
		inst = w.setup(cfg.seed, cfg.threads)
		next = make([]uint32, inst.clients())
		rate = warmUp(w, inst, next)
		res.SetupS = append(res.SetupS, time.Since(start).Seconds())
	}
	defer inst.close()
	res.Clients = inst.clients()
	res.SeqHash = fmt.Sprintf("%016x", inst.seqHash())

	total := time.Duration(cfg.segments) * cfg.segDur
	var ms0, ms1 runtime.MemStats
	res.HostCalib[0] = calibrate()
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	var rssMB float64
	ph := runPhase(inst, cfg.segments, cfg.segDur, nil, next, int(rate*total.Seconds()*1.5), func() {
		runtime.ReadMemStats(&ms1)
		rssMB = peakRSSMB() // before the analysis below allocates
	})
	res.HostCalib[1] = calibrate()
	a, b := float64(res.HostCalib[0]), float64(res.HostCalib[1])
	res.Noisy = a > 1.1*b || b > 1.1*a

	res.Segments = ph.segs
	res.Attempted, res.Failed = ph.ops()
	lat := ph.latMS()
	p50 := median(lat)
	for _, v := range lat {
		if v > slowFactor*p50 && v > slowFloor {
			res.SlowOps++
		}
	}
	res.FailedFrac = float64(res.Failed) / float64(res.Attempted)
	res.Samples = len(lat)
	tailV, tailPct := tail(lat)
	res.TailP = tailPct

	var rates, cpus []float64
	for _, s := range ph.segs {
		rates = append(rates, s.OpsPerS)
		cpus = append(cpus, s.CPUMSOp)
	}
	m := res.Metrics
	m.set("setup_s", median(res.SetupS))
	m.set("ops_per_s", median(rates))
	m.set("op_ms_p50", p50)
	m.set("op_ms_tail", tailV)
	m.set("allocs_per_op", float64(ms1.Mallocs-ms0.Mallocs)/float64(res.Attempted))
	m.set("cpu_ms_per_op", median(cpus))
	m.set("peak_rss_mb", rssMB)
	res.Spread = map[string]float64{"ops_per_s": spread(rates), "cpu_ms_per_op": spread(cpus)}
	return res
}

// provenance records where and on what a result was measured.
type provenance struct {
	NProc      int    `json:"nproc"`
	Threads    int    `json:"threads"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	GitCommit  string `json:"git_commit"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	LoadAvg    string `json:"load_average"`
	Time       string `json:"time"`
}

func readProvenance(seed int64, seconds int) provenance {
	p := provenance{
		NProc: runtime.NumCPU(), Threads: benchThreads(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPUModel: "unknown", GitCommit: "unknown",
		Seed: seed, Seconds: seconds, LoadAvg: "unknown", Time: time.Now().UTC().Format(time.RFC3339),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		p.LoadAvg = strings.Join(strings.Fields(string(b))[:3], " ")
	}
	p.GitCommit = gitCommit()
	return p
}

// gitCommit reads HEAD from the files of the checkout the benchmark is
// run from, without starting git. A checkout that is not a git
// repository (the driver's) has no commit.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(".git/" + ref); err == nil {
		return strings.TrimSpace(string(b))
	}
	if b, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
				return sha
			}
		}
	}
	return "unknown"
}
