package komp

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestRealOMPParallelFor(t *testing.T) {
	o := New(4)
	defer o.Close()
	const n = 10000
	out := make([]int64, n)
	o.ParallelFor(0, 0, n, ForOpt{Sched: Static}, func(i int) {
		out[i] = int64(i) * 2
	})
	for i := 0; i < n; i++ {
		if out[i] != int64(i)*2 {
			t.Fatalf("out[%d] = %d", i, out[i])
		}
	}
}

// TestRealOMPRegionsAreZeroAlloc: the public fork/join path on a warm
// handle allocates nothing — not for the region, not for sleeping in the
// real layer's futex, and (the region carries the loop bounds) not for a
// ParallelFor either.
func TestRealOMPRegionsAreZeroAlloc(t *testing.T) {
	o := New(4)
	defer o.Close()
	empty := func(*Worker) {}
	data := make([]float64, 4096)
	each := func(i int) { data[i]++ }
	for i := 0; i < 20; i++ {
		o.Parallel(4, empty)
		o.ParallelFor(4, 0, len(data), ForOpt{Sched: Static}, each)
	}
	if avg := testing.AllocsPerRun(200, func() { o.Parallel(4, empty) }); avg != 0 {
		t.Errorf("Parallel: %v allocs per region, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() {
		o.ParallelFor(4, 0, len(data), ForOpt{Sched: Static}, each)
	}); avg != 0 {
		t.Errorf("ParallelFor: %v allocs per region, want 0", avg)
	}
	if data[0] != 20+201 || data[len(data)-1] != 20+201 {
		t.Errorf("ParallelFor ran its body %v / %v times on the first / last element, want %d", data[0], data[len(data)-1], 20+201)
	}
}

func TestRealOMPReduceAndCritical(t *testing.T) {
	o := New(4)
	defer o.Close()
	var viaCritical int64
	var viaReduce float64
	o.Parallel(4, func(w *Worker) {
		local := 0.0
		w.ForEach(1, 101, ForOpt{Sched: Dynamic, Chunk: 5}, func(i int) {
			local += float64(i)
			w.Critical("", func() { viaCritical += int64(i) })
		})
		total := w.Reduce(ReduceSum, local)
		w.Master(func() { viaReduce = total })
	})
	if viaCritical != 5050 || viaReduce != 5050 {
		t.Fatalf("critical=%d reduce=%v, want 5050", viaCritical, viaReduce)
	}
}

func TestRealOMPPlacesOptions(t *testing.T) {
	// Spread over two 2-CPU places: a 2-thread team must land one worker
	// per place, and the Affinity schedule must deal blocks in CPU order.
	o := New(4, WithPlaces("{0:2},{2:2}"), WithProcBind(BindSpread))
	defer o.Close()
	cpus := make([]int64, 2)
	o.Parallel(2, func(w *Worker) {
		atomic.StoreInt64(&cpus[w.ThreadNum()], int64(w.TC().CPU()))
		w.For(0, 2, ForOpt{Sched: Affinity}, func(lo, hi int) {})
	})
	if cpus[0] != 0 || cpus[1] != 2 {
		t.Fatalf("spread over {0:2},{2:2} placed workers on CPUs %v, want [0 2]", cpus)
	}
}

func TestRealOMPTasks(t *testing.T) {
	o := New(4)
	defer o.Close()
	var done atomic.Int64
	o.Parallel(0, func(w *Worker) {
		w.Master(func() {
			for i := 0; i < 64; i++ {
				w.Task(func(*Worker) { done.Add(1) })
			}
		})
		w.Barrier()
	})
	if done.Load() != 64 {
		t.Fatalf("tasks = %d", done.Load())
	}
}

func TestMachines(t *testing.T) {
	phi, err := NewMachine(MachinePHI)
	if err != nil || phi.NumCPUs() != 64 {
		t.Fatalf("PHI: %v %v", phi, err)
	}
	xeon, err := NewMachine(Machine8XEON)
	if err != nil || xeon.NumCPUs() != 192 {
		t.Fatalf("8XEON: %v %v", xeon, err)
	}
	if _, err := NewMachine("cray"); err == nil {
		t.Fatal("unknown machine must error")
	}
}

func TestSimulationAPI(t *testing.T) {
	m, _ := NewMachine(MachinePHI)
	lin := NewEnvironment(EnvConfig{Machine: m, Kind: EnvLinux, Seed: 1, Threads: 8})
	rtk := NewEnvironment(EnvConfig{Machine: m, Kind: EnvRTK, Seed: 1, Threads: 8})
	tl, err := RunNAS(lin, "EP", 8)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := RunNAS(rtk, "EP", 8)
	if err != nil {
		t.Fatal(err)
	}
	if !(tr < tl) {
		t.Fatalf("RTK (%v) must beat Linux (%v) on EP", tr, tl)
	}
	if _, err := RunNAS(lin, "ZZ", 8); err == nil {
		t.Fatal("unknown benchmark must error")
	}
	if len(NASBenchmarks()) != 8 {
		t.Fatalf("benchmarks = %v", NASBenchmarks())
	}
}

func TestFigureAPI(t *testing.T) {
	if len(FigureIDs()) != 10 {
		t.Fatalf("figures = %v", FigureIDs())
	}
	var b strings.Builder
	if err := RunFigure("fig6", &b, FigureOptions{}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "CCK") {
		t.Fatal("fig6 content missing")
	}
	if err := RunFigure("fig99", &b, FigureOptions{}); err == nil {
		t.Fatal("unknown figure must error")
	}
}

// TestServiceAPI: the public multi-tenant surface — NewService,
// WithTenant handles leasing from one shared pool, Submit backpressure
// stats, and per-tenant Close leaving the service usable.
func TestServiceAPI(t *testing.T) {
	svc, err := NewService(ServiceConfig{Workers: 4, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	a := New(2, WithTenant(svc))
	b := New(2, WithTenant(svc), WithCancellation())
	var sum [2]int
	var iters atomic.Int64
	var wg sync.WaitGroup
	for i, h := range []*OMP{a, b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				h.ParallelFor(2, 0, 100, ForOpt{}, func(int) { iters.Add(1) })
				if err := h.Submit(2, func(w *Worker) {
					w.Atomic(func() { sum[i]++ })
				}); err != nil {
					t.Errorf("tenant %d Submit: %v", i, err)
				}
			}
		}()
	}
	wg.Wait()
	if sum[0] != 40 || sum[1] != 40 {
		t.Fatalf("per-tenant sums = %v, want 40 each", sum)
	}
	if got := iters.Load(); got != 2*20*100 {
		t.Fatalf("tenant ParallelFor bodies ran %d iterations, want %d", got, 2*20*100)
	}
	if st := svc.Stats(); st.Admitted != 80 || st.Rejected != 0 {
		t.Fatalf("Stats = %+v, want 80 admitted, 0 rejected", st)
	}
	a.Close()
	b.Close()
	svc.Close()
}

// TestTargetMapTypesMatchHostFallback: a kernel body addresses host
// memory, so under every public map type the host data a doubling
// kernel leaves after Target is what the host fallback leaves — no map
// type copies an unwritten device buffer back over the body's writes.
func TestTargetMapTypesMatchHostFallback(t *testing.T) {
	double := func(o *OMP, mk func(any) Map) []float64 {
		a := []float64{1, 2, 3, 4, 5}
		k := Kernel{Name: "double", N: len(a), IterNS: 10,
			Body: func(b Block) float64 {
				for i := b.Lo; i < b.Hi; i++ {
					a[i] *= 2
				}
				return 0
			}}
		if _, err := o.Target([]Map{mk(a)}, k); err != nil {
			t.Fatal(err)
		}
		return a
	}
	host := New(2, WithDefaultDevice(-1))
	defer host.Close()
	dev := New(2, WithDevice(4, 8))
	defer dev.Close()
	for name, mk := range map[string]func(any) Map{"to": MapTo, "alloc": MapAlloc} {
		want := fmt.Sprint(double(host, mk))
		if got := fmt.Sprint(double(dev, mk)); got != want {
			t.Errorf("map(%s:): host data %s on the device, %s under the host fallback", name, got, want)
		}
	}
}

// TestTenantShedPanics: with one region in flight on a Service that
// rejects at saturation, a second tenant's Submit returns ErrRejected
// and its Parallel panics with a message pointing at Submit.
func TestTenantShedPanics(t *testing.T) {
	svc, err := NewService(ServiceConfig{MaxInflight: 1, QueueDepth: 0, Reject: true})
	if err != nil {
		t.Fatal(err)
	}
	a := New(1, WithTenant(svc))
	b := New(1, WithTenant(svc))
	entered, release := make(chan struct{}), make(chan struct{})
	done := make(chan error)
	go func() {
		done <- a.Submit(1, func(*Worker) {
			close(entered)
			<-release
		})
	}()
	<-entered
	if err := b.Submit(1, func(*Worker) { t.Error("a shed Submit ran its region") }); !errors.Is(err, ErrRejected) {
		t.Errorf("Submit at saturation = %v, want ErrRejected", err)
	}
	func() {
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "use Submit") {
				t.Errorf("Parallel at saturation panicked with %q, want a message containing \"use Submit\"", msg)
			}
		}()
		b.Parallel(1, func(*Worker) { t.Error("a shed Parallel ran its region") })
	}()
	close(release)
	if err := <-done; err != nil {
		t.Errorf("tenant a: %v", err)
	}
	a.Close()
	b.Close()
	svc.Close()
}
