package omp

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"github.com/interweaving/komp/internal/exec"
)

// These tests pin what a fork on a reused hot team pays and leaves
// behind: clDeque.reset clears only what was pushed since the last
// reset, yet no slot may keep a drained task alive, and the indices the
// ABA argument rests on never rewind.

// dirtySlots returns how many slots of the deque's ring hold a pointer.
func dirtySlots(d *clDeque) int {
	n := 0
	r := d.ring.Load()
	for i := range r.slot {
		if r.slot[i].Load() != nil {
			n++
		}
	}
	return n
}

// checkTeamClean asserts, from inside a region whose body pushes no
// task, that the fork left every deque of the team as a fresh one.
func checkTeamClean(t *testing.T, w *Worker, after string) {
	t.Helper()
	for _, tw := range w.team.workers {
		d := tw.deque.(*clDeque)
		if c := d.ring.Load().capacity(); c != clInitialCap {
			t.Errorf("%s: worker %d ring capacity %d at the next fork, want %d", after, tw.id, c, clInitialCap)
		}
		if n := dirtySlots(d); n != 0 {
			t.Errorf("%s: worker %d ring holds %d stale task pointers at the next fork", after, tw.id, n)
		}
	}
}

// spawnCollectable creates one task whose closure owns an object with a
// finalizer; collected is closed when the object is freed. Kept out of
// line so the caller's frame holds no reference.
//
//go:noinline
func spawnCollectable(w *Worker, collected chan struct{}) {
	obj := new([64]byte)
	runtime.SetFinalizer(obj, func(*[64]byte) { close(collected) })
	w.Task(func(*Worker) { obj[0]++ })
}

func TestForkClearsWhatWasPushed(t *testing.T) {
	layer := exec.NewRealLayer(4)
	rt := New(layer, Options{MaxThreads: 4, Bind: true})
	_, err := layer.Run(func(tc exec.TC) {
		defer rt.Close(tc)
		rt.Parallel(tc, 4, func(*Worker) {}) // build the hot team
		builds := rt.TeamBuilds()
		for _, n := range []int{1, 63, 64, 65, 200} {
			after := fmt.Sprintf("after %d tasks per worker", n)
			collected := make(chan struct{})
			var ran atomic.Int64
			rt.Parallel(tc, 4, func(w *Worker) {
				if w.ThreadNum() == 0 {
					spawnCollectable(w, collected)
				} else {
					w.Task(func(*Worker) { ran.Add(1) })
				}
				for i := 1; i < n; i++ {
					w.Task(func(*Worker) { ran.Add(1) })
				}
			})
			if got := ran.Load(); got != int64(4*n-1) {
				t.Fatalf("%s: %d plain tasks ran, want %d", after, got, 4*n-1)
			}
			rt.Parallel(tc, 4, func(w *Worker) {
				if w.ThreadNum() == 0 {
					checkTeamClean(t, w, after)
				}
			})
			// The drained task must be garbage now: nothing the runtime
			// keeps between regions may still point at it.
			deadline := time.After(10 * time.Second)
			for freed := false; !freed; {
				runtime.GC()
				select {
				case <-collected:
					freed = true
				case <-deadline:
					t.Fatalf("%s: a drained task's closure is still reachable after the next fork", after)
				case <-time.After(time.Millisecond):
				}
			}
		}
		if got := rt.TeamBuilds(); got != builds {
			t.Errorf("built %d teams during the test, want the one hot team reused", got-builds)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCLDequeResetWindow(t *testing.T) {
	layer := exec.NewRealLayer(1)
	if _, err := layer.Run(func(tc exec.TC) {
		d := newCLDeque()
		tk := &task{}

		// Push then own pop: bottom is back where it was, the pointer is
		// still in the slot, and reset must find it.
		d.push(tc, tk)
		if d.pop(tc) != tk {
			t.Fatal("pop lost the task")
		}
		if dirtySlots(d) != 1 {
			t.Fatal("test premise: pop leaves the pointer in its slot")
		}
		d.reset()
		if n := dirtySlots(d); n != 0 {
			t.Errorf("push, own pop, reset: %d stale slots", n)
		}

		// A window that wraps the ring without growing it (never more
		// than one task live): every slot is dirty, reset clears them all.
		for i := 0; i < clInitialCap+6; i++ {
			d.push(tc, tk)
			if d.steal(tc) != tk {
				t.Fatal("steal lost the task")
			}
		}
		if c := d.ring.Load().capacity(); c != clInitialCap {
			t.Fatalf("ring grew to %d with one live task", c)
		}
		d.reset()
		if n := dirtySlots(d); n != 0 {
			t.Errorf("wrapped window, reset: %d stale slots", n)
		}

		// A short window after a wrap clears only itself, wherever it
		// falls on the ring.
		for i := 0; i < 3; i++ {
			d.push(tc, tk)
		}
		for d.pop(tc) != nil {
		}
		d.reset()
		if n := dirtySlots(d); n != 0 {
			t.Errorf("short window, reset: %d stale slots", n)
		}

		// A reset with nothing pushed touches nothing and moves nothing.
		top, bottom := d.top.Load(), d.bottom.Load()
		d.reset()
		if d.top.Load() != top || d.bottom.Load() != bottom || d.cleanAt != bottom || d.dirtyTo != bottom {
			t.Errorf("idle reset moved the indices: top %d→%d bottom %d→%d window [%d,%d)",
				top, d.top.Load(), bottom, d.bottom.Load(), d.cleanAt, d.dirtyTo)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestDequeIndicesNeverRewind: across 1000 regions on one reused team,
// no deque's top ever decreases and no reset finds a deque below where
// the previous reset found it — the monotonicity that keeps a stale
// thief's top CAS from ever matching a recycled index. A drained deque
// sits at top == bottom, so the reset point speaks for bottom; bottom
// itself is not sampled mid-run because an owner straggling out of the
// previous join holds it one below top for the instant of an empty pop.
func TestDequeIndicesNeverRewind(t *testing.T) {
	layer := exec.NewRealLayer(4)
	rt := New(layer, Options{MaxThreads: 4, Bind: true})
	_, err := layer.Run(func(tc exec.TC) {
		defer rt.Close(tc)
		var lastTop, lastClean [4]int64
		var ran atomic.Int64
		body := func(w *Worker) {
			if w.ThreadNum() == 0 {
				// cleanAt is written by this thread's reset only; top is
				// an atomic teammates may already be advancing.
				for i, tw := range w.team.workers {
					d := tw.deque.(*clDeque)
					top := d.top.Load()
					if top < lastTop[i] {
						t.Errorf("worker %d: top went back %d → %d", i, lastTop[i], top)
					}
					if d.cleanAt < lastClean[i] || d.cleanAt < lastTop[i] {
						t.Errorf("worker %d: reset found the deque at %d, below the previous reset's %d or top %d",
							i, d.cleanAt, lastClean[i], lastTop[i])
					}
					lastTop[i], lastClean[i] = top, d.cleanAt
				}
			}
			for i := 0; i <= w.ThreadNum(); i++ {
				w.Task(func(*Worker) { ran.Add(1) })
			}
		}
		for r := 0; r < 1000; r++ {
			rt.Parallel(tc, 4, body)
		}
		if got := ran.Load(); got != 1000*(1+2+3+4) {
			t.Errorf("%d tasks ran, want %d", got, 1000*(1+2+3+4))
		}
		if rt.TeamBuilds() != 1 {
			t.Errorf("TeamBuilds = %d, want 1 (the team must have been reused)", rt.TeamBuilds())
		}
		if lastTop[3] < 999 {
			t.Errorf("worker 3's top only reached %d by region 1000 with 4 tasks in each: indices were rewound", lastTop[3])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRealLayerRegionsAreZeroAlloc: on a warmed hot team the fork/join
// of an empty region, a combined parallel-for and an explicit barrier
// round allocate nothing — sleeping in the real layer's futex included.
func TestRealLayerRegionsAreZeroAlloc(t *testing.T) {
	layer := exec.NewRealLayer(4)
	rt := New(layer, Options{MaxThreads: 4, Bind: true})
	_, err := layer.Run(func(tc exec.TC) {
		defer rt.Close(tc)
		empty := func(*Worker) {}
		var data [1024]float64
		each := func(i int) { data[i]++ }
		for i := 0; i < 20; i++ { // lease the team, fill the parker free lists
			rt.Parallel(tc, 4, empty)
			rt.ParallelFor(tc, 4, 0, len(data), ForOpt{Sched: Static}, each)
		}
		if avg := testing.AllocsPerRun(200, func() { rt.Parallel(tc, 4, empty) }); avg != 0 {
			t.Errorf("empty Parallel on a hot team: %v allocs, want 0", avg)
		}
		if avg := testing.AllocsPerRun(200, func() {
			rt.ParallelFor(tc, 4, 0, len(data), ForOpt{Sched: Static}, each)
		}); avg != 0 {
			t.Errorf("ParallelFor on a hot team: %v allocs, want 0", avg)
		}
		const rounds = 200
		barriers := -1.0
		rt.Parallel(tc, 4, func(w *Worker) {
			if w.ThreadNum() != 0 {
				for i := 0; i < rounds+1; i++ { // AllocsPerRun's warm-up call + rounds
					w.Barrier()
				}
				return
			}
			barriers = testing.AllocsPerRun(rounds, w.Barrier)
		})
		if barriers != 0 {
			t.Errorf("Worker.Barrier round: %v allocs, want 0", barriers)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// BenchmarkForkJoinEmpty is the fixed cost of a region: fork, empty
// body, join, on a reused team of the given size (16 oversubscribes a
// small host). The fork must not scale with ring capacity × team size.
func BenchmarkForkJoinEmpty(b *testing.B) {
	for _, n := range []int{2, 4, 16} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			layer := exec.NewRealLayer(n)
			rt := New(layer, Options{MaxThreads: n, Bind: true})
			_, err := layer.Run(func(tc exec.TC) {
				defer rt.Close(tc)
				empty := func(*Worker) {}
				rt.Parallel(tc, n, empty)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					rt.Parallel(tc, n, empty)
				}
				b.StopTimer()
			})
			if err != nil {
				b.Fatal(err)
			}
		})
	}
}
