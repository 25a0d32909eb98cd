package virgil

import (
	"sync/atomic"
	"testing"

	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/machine"
	"github.com/interweaving/komp/internal/nautilus"
	"github.com/interweaving/komp/internal/sim"
)

func TestUserRunsAllTasks(t *testing.T) {
	for name, mk := range map[string]func() exec.Layer{
		"real": func() exec.Layer { return exec.NewRealLayer(8) },
		"sim": func() exec.Layer {
			return exec.NewSimLayer(sim.New(8, 1), exec.Costs{
				ThreadSpawnNS: 1000, MallocNS: 100, AtomicRMWNS: 20,
				FutexWaitEntryNS: 80, FutexWakeEntryNS: 80, FutexWakeLatencyNS: 200,
			})
		},
	} {
		t.Run(name, func(t *testing.T) {
			layer := mk()
			u := NewUser(6)
			var done atomic.Int64
			_, err := layer.Run(func(tc exec.TC) {
				u.Start(tc)
				g := NewGroup(500)
				fns := make([]func(exec.TC), 500)
				for i := range fns {
					fns[i] = func(tc exec.TC) {
						tc.Charge(100)
						done.Add(1)
						g.Done(tc)
					}
				}
				u.SubmitBatch(tc, fns)
				g.Wait(tc)
				u.Stop(tc)
			})
			if err != nil {
				t.Fatal(err)
			}
			if done.Load() != 500 {
				t.Fatalf("done = %d, want 500", done.Load())
			}
			if u.Executed.Load() != 500 {
				t.Fatalf("executed = %d", u.Executed.Load())
			}
		})
	}
}

func TestUserParallelismOnSim(t *testing.T) {
	layer := exec.NewSimLayer(sim.New(8, 1), exec.Costs{
		ThreadSpawnNS: 1000, FutexWakeLatencyNS: 200,
	})
	u := NewUser(8)
	elapsed, err := layer.Run(func(tc exec.TC) {
		u.Start(tc)
		g := NewGroup(8)
		fns := make([]func(exec.TC), 8)
		for i := range fns {
			fns[i] = func(tc exec.TC) {
				tc.Charge(1_000_000)
				g.Done(tc)
			}
		}
		u.SubmitBatch(tc, fns)
		g.Wait(tc)
		u.Stop(tc)
	})
	if err != nil {
		t.Fatal(err)
	}
	// 8 x 1ms tasks on 8 workers: ~1ms, certainly below 3ms.
	if elapsed > 3_000_000 {
		t.Fatalf("elapsed = %d; tasks did not run in parallel", elapsed)
	}
}

func TestGroupWaitBlocksUntilAllDone(t *testing.T) {
	layer := exec.NewSimLayer(sim.New(4, 1), exec.Costs{})
	u := NewUser(3)
	var doneAt, waitedAt int64
	_, err := layer.Run(func(tc exec.TC) {
		u.Start(tc)
		g := NewGroup(3)
		fns := make([]func(exec.TC), 3)
		for i := range fns {
			d := int64((i + 1) * 1000)
			fns[i] = func(tc exec.TC) {
				tc.Charge(d)
				if d == 3000 {
					doneAt = tc.Now()
				}
				g.Done(tc)
			}
		}
		u.SubmitBatch(tc, fns)
		g.Wait(tc)
		waitedAt = tc.Now()
		u.Stop(tc)
	})
	if err != nil {
		t.Fatal(err)
	}
	if waitedAt < doneAt {
		t.Fatalf("Wait returned at %d before last task at %d", waitedAt, doneAt)
	}
}

func TestKernelVirgilOverTaskSystem(t *testing.T) {
	k := nautilus.Boot(nautilus.Config{Machine: machine.PHI(), Seed: 1})
	v := NewKernel(k, []int{1, 2, 3, 4})
	var done atomic.Int64
	_, err := k.Layer.Run(func(tc exec.TC) {
		v.Start(tc)
		g := NewGroup(100)
		fns := make([]func(exec.TC), 100)
		for i := range fns {
			fns[i] = func(tc exec.TC) {
				tc.Charge(500)
				done.Add(1)
				g.Done(tc)
			}
		}
		v.SubmitBatch(tc, fns)
		g.Wait(tc)
		v.Stop(tc)
	})
	if err != nil {
		t.Fatal(err)
	}
	if done.Load() != 100 {
		t.Fatalf("done = %d", done.Load())
	}
	if k.Tasks.Executed != 100 {
		t.Fatalf("kernel task system executed %d", k.Tasks.Executed)
	}
}

func TestKernelVirgilCheaperSubmitThanUserOnSameCosts(t *testing.T) {
	// The kernel task path avoids the user-level queue-lock/malloc path:
	// with identical cost tables, per-task overhead must be lower. This
	// is the "thin veneer over the kernel's task framework" claim (§6.2).
	costs := exec.Costs{MallocNS: 150, AtomicRMWNS: 25, FutexWaitEntryNS: 300,
		FutexWakeEntryNS: 300, FutexWakeLatencyNS: 1500}

	runUser := func() int64 {
		layer := exec.NewSimLayer(sim.New(4, 1), costs)
		u := NewUser(4)
		elapsed, err := layer.Run(func(tc exec.TC) {
			u.Start(tc)
			g := NewGroup(2000)
			fns := make([]func(exec.TC), 2000)
			for i := range fns {
				fns[i] = func(tc exec.TC) { tc.Charge(50); g.Done(tc) }
			}
			u.SubmitBatch(tc, fns)
			g.Wait(tc)
			u.Stop(tc)
		})
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	runKernel := func() int64 {
		k := nautilus.Boot(nautilus.Config{Machine: machine.PHI(), Seed: 1,
			Costs: exec.Costs{MallocNS: 60, AtomicRMWNS: 20, FutexWaitEntryNS: 60,
				FutexWakeEntryNS: 60, FutexWakeLatencyNS: 400}})
		v := NewKernel(k, []int{0, 1, 2, 3})
		elapsed, err := k.Layer.Run(func(tc exec.TC) {
			v.Start(tc)
			g := NewGroup(2000)
			fns := make([]func(exec.TC), 2000)
			for i := range fns {
				fns[i] = func(tc exec.TC) { tc.Charge(50); g.Done(tc) }
			}
			v.SubmitBatch(tc, fns)
			g.Wait(tc)
			v.Stop(tc)
		})
		if err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	user, kernel := runUser(), runKernel()
	if kernel >= user {
		t.Fatalf("kernel VIRGIL (%d) must beat user VIRGIL (%d) on task overheads", kernel, user)
	}
}

func TestUserStopWithEmptyQueue(t *testing.T) {
	layer := exec.NewRealLayer(4)
	u := NewUser(4)
	_, err := layer.Run(func(tc exec.TC) {
		u.Start(tc)
		u.Stop(tc) // no tasks at all: must not hang
	})
	if err != nil {
		t.Fatal(err)
	}
}
