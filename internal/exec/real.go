package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/interweaving/komp/internal/ompt"
)

// RealLayer executes threads as goroutines with real synchronization. It
// is the layer behind the public komp API when used as an ordinary Go
// parallelism library; the examples run on it.
type RealLayer struct {
	ncpu  int
	costs Costs

	// Spine, if set before Run, receives ThreadBegin/ThreadEnd for the
	// main thread and every spawned thread, stamped with wall-clock
	// nanoseconds since Run. A nil spine costs one comparison per spawn.
	Spine *ompt.Spine

	tidSeq atomic.Int32

	start time.Time

	// futex is the parking lot behind FutexWait/FutexWake (futex.go).
	futex [futexShards]futexShard

	wg sync.WaitGroup

	// startMu guards the lazy start-epoch init in TC: with several
	// session handles created concurrently (multi-tenant drivers), the
	// first two TC calls would otherwise race on l.start.
	startMu sync.Mutex

	// Stall watchdog (SetWatchdog): progress counts layer-level events
	// (spawns and futex wakes; only while a watchdog is armed, see
	// noteProgress); the monitor goroutine fires when the counter stops
	// moving for a full period. idleParked counts threads deliberately
	// parked for an unbounded time (IdlePark) — an admission queue's
	// waiters are idle, not stuck — and suppresses the dump while nonzero.
	watchdogD  time.Duration
	watchdogFn func(stacks string)
	progress   atomic.Uint64
	idleParked atomic.Int32
}

// IdleParker is implemented by layers whose stall watchdog must be told
// about intentional, unbounded parks. A thread about to block with no
// bounded wake guarantee — e.g. in a tenancy admission queue behind a
// saturated pool — calls IdlePark before blocking and the returned done
// after waking, so the watchdog can tell "parked idle awaiting
// admission" from "stalled in FutexWait".
type IdleParker interface {
	IdlePark() (done func())
}

// IdlePark marks the calling thread as deliberately parked until the
// returned done is called. While any thread is idle-parked the stall
// watchdog does not dump: a saturated admission queue can legitimately
// sit still for a whole period with every non-parked thread busy in
// long uninstrumented compute, which is indistinguishable from a hang
// by the progress counter alone. The tradeoff is documented at
// SetWatchdog: a genuine deadlock that includes an idle-parked thread
// is only caught once the parker's wake source fails AND the park
// exits, so parkers should pair IdlePark with their own timeouts when
// that matters. Both the park and the unpark count as progress, so the
// period after a park transition always gets grace.
func (l *RealLayer) IdlePark() (done func()) {
	l.idleParked.Add(1)
	l.progress.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			l.idleParked.Add(-1)
			l.progress.Add(1)
		})
	}
}

// NewRealLayer creates a real layer that reports ncpu CPUs (typically
// runtime.NumCPU()).
func NewRealLayer(ncpu int) *RealLayer {
	if ncpu < 1 {
		ncpu = 1
	}
	return &RealLayer{ncpu: ncpu}
}

// NumCPUs returns the configured CPU count.
func (l *RealLayer) NumCPUs() int { return l.ncpu }

// Costs returns the (all-zero) cost table; real time is measured instead.
func (l *RealLayer) Costs() *Costs { return &l.costs }

// SetWatchdog arms an opt-in stall watchdog mirroring the simulator's
// deadlock detector (sim.SetWatchdog): if no layer-level progress — a
// thread spawn or a futex wake — happens for a full period d while Run
// is active, report is called once with a dump of every goroutine's
// stack, so a hung real-layer test fails immediately with the blocked
// stacks instead of waiting out the 10-minute go test timeout. A nil
// report panics with the dump. Call before Run; the watchdog stops when
// Run returns. Periods of genuine quiet compute (no synchronization at
// all) also count as stalls — pick d well above the workload's longest
// synchronization-free stretch. Stall periods are not reported while any
// thread is idle-parked (IdlePark): waiters of a saturated admission
// queue are idle, not stuck, and must not trigger a goroutine dump — at
// the cost that a real deadlock is only reported once no intentional
// park remains.
func (l *RealLayer) SetWatchdog(d time.Duration, report func(stacks string)) {
	l.watchdogD = d
	l.watchdogFn = report
}

// noteProgress records one layer-level event for the stall watchdog.
// Without an armed watchdog (watchdogD is set before Run, so the plain
// read is ordered by thread creation) nobody reads the counter, and the
// wake and spawn paths must not bounce its cache line between cores.
func (l *RealLayer) noteProgress() {
	if l.watchdogD > 0 {
		l.progress.Add(1)
	}
}

// startWatchdog launches the monitor goroutine; the returned stop
// terminates it (Run defers it).
func (l *RealLayer) startWatchdog() (stop func()) {
	if l.watchdogD <= 0 {
		return func() {}
	}
	done := make(chan struct{})
	go func() {
		tick := time.NewTicker(l.watchdogD)
		defer tick.Stop()
		last := l.progress.Load()
		fresh := true // the first period after any progress gets grace
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				cur := l.progress.Load()
				if cur != last || fresh {
					fresh = cur != last
					last = cur
					continue
				}
				if l.idleParked.Load() > 0 {
					// Threads are deliberately parked (IdlePark): a quiet
					// period is expected, not a stall. Keep watching — the
					// unpark bumps progress, so the first period after the
					// queue drains gets grace again.
					continue
				}
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				dump := string(buf[:n])
				if l.watchdogFn != nil {
					l.watchdogFn(dump)
					return
				}
				panic("exec: real-layer watchdog: no progress for " +
					l.watchdogD.String() + "\n" + dump)
			}
		}
	}()
	return func() { close(done) }
}

// Run executes main on the calling goroutine and waits for all spawned
// threads to finish. It returns the elapsed wall-clock nanoseconds.
func (l *RealLayer) Run(main func(TC)) (int64, error) {
	l.start = time.Now()
	defer l.startWatchdog()()
	tc := &realTC{layer: l, cpu: 0}
	sp := l.Spine
	tid := l.tidSeq.Add(1) - 1
	if sp.Enabled(ompt.ThreadBegin) {
		sp.Emit(ompt.Event{Kind: ompt.ThreadBegin, Thread: tid, TimeNS: tc.Now()})
	}
	main(tc)
	l.wg.Wait()
	elapsed := time.Since(l.start).Nanoseconds()
	if sp.Enabled(ompt.ThreadEnd) {
		sp.Emit(ompt.Event{Kind: ompt.ThreadEnd, Thread: tid, TimeNS: elapsed})
	}
	return elapsed, nil
}

// TC returns a thread context for the calling goroutine, for interactive
// use of the layer without Run (the public API's session mode). Spawned
// threads must be joined by the caller.
func (l *RealLayer) TC() TC {
	l.startMu.Lock()
	if l.start.IsZero() {
		l.start = time.Now()
	}
	l.startMu.Unlock()
	return &realTC{layer: l, cpu: 0}
}

type realTC struct {
	layer *RealLayer
	cpu   int
}

func (t *realTC) CPU() int                  { return t.cpu }
func (t *realTC) NumCPUs() int              { return t.layer.ncpu }
func (t *realTC) Costs() *Costs             { return &t.layer.costs }
func (t *realTC) Charge(ns int64)           {}
func (t *realTC) MoveCPU(cpu int)           { t.cpu = cpu }
func (t *realTC) Contend(l *Line, ns int64) {}
func (t *realTC) Now() int64                { return time.Since(t.layer.start).Nanoseconds() }
func (t *realTC) Yield()                    { runtime.Gosched() }

func (t *realTC) Sleep(ns int64) { time.Sleep(time.Duration(ns)) }

type realHandle struct{ done chan struct{} }

func (h *realHandle) Join(TC) { <-h.done }

// Alarm arms a one-shot wall-clock timer: fn runs on the timer
// goroutine with a context of its own. stop is time.Timer.Stop — a
// firing already in flight may still run concurrently with it.
func (t *realTC) Alarm(ns int64, fn func(TC)) (stop func()) {
	l := t.layer
	timer := time.AfterFunc(time.Duration(ns), func() {
		fn(&realTC{layer: l, cpu: -1})
	})
	return func() { timer.Stop() }
}

func (t *realTC) Spawn(name string, cpu int, fn func(TC)) Handle {
	h := &realHandle{done: make(chan struct{})}
	l := t.layer
	l.noteProgress()
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		defer close(h.done)
		runSpawned(l.Spine, &l.tidSeq, cpu, &realTC{layer: l, cpu: cpu}, fn)
	}()
	return h
}
