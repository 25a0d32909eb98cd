package multikernel

import (
	"strings"
	"testing"

	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/omp"
	"github.com/interweaving/komp/internal/ompt"
	"github.com/interweaving/komp/internal/sim"
)

func TestShutdownIsIdempotent(t *testing.T) {
	p, err := Boot(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	p.Shutdown()
	if p.Kernel != nil {
		t.Fatal("kernel not torn down")
	}
	p.Shutdown() // double shutdown must be a no-op
	if p.Kernel != nil || p.Crashed() {
		t.Fatal("double shutdown corrupted state")
	}
}

func TestRebootAfterShutdown(t *testing.T) {
	p, err := Boot(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	p.Shutdown()
	_, err = p.HostLayer.Run(func(tc exec.TC) {
		if ns := p.Reboot(tc); ns <= 0 {
			t.Errorf("reboot-after-shutdown boot time = %d", ns)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Kernel == nil || p.Reboots != 1 {
		t.Fatal("reboot after shutdown did not produce a live kernel")
	}
	// The budget must not be double-carved: the fresh buddy still spans
	// at most the configured 8 GiB.
	if b := p.Kernel.Buddies[0]; b.Size() > 8<<30 {
		t.Fatalf("rebooted compartment spans %d bytes", b.Size())
	}
}

func TestDoubleRebootKeepsBudgetStable(t *testing.T) {
	p, err := Boot(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var sizes []int64
	_, err = p.HostLayer.Run(func(tc exec.TC) {
		for i := 0; i < 3; i++ {
			p.Reboot(tc)
			sizes = append(sizes, p.Kernel.Buddies[0].Size())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sizes {
		if s != sizes[0] {
			t.Fatalf("reboot %d changed the compartment budget: %v", i, sizes)
		}
	}
}

func TestCrashKillsCompartmentProcsOnly(t *testing.T) {
	p, err := Boot(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	compFinished, hostFinished := false, false
	_, err = p.HostLayer.Run(func(tc exec.TC) {
		p.SpawnInCompartment("victim", 60, func(ktc exec.TC) {
			ktc.Charge(50_000_000) // long job, dies mid-flight
			compFinished = true
		})
		p.Sim.At(p.Sim.Now()+1_000_000, func() { p.Crash() })
		tc.Charge(5_000_000) // host work rides through the crash
		hostFinished = true
	})
	if err != nil {
		t.Fatal(err)
	}
	if compFinished {
		t.Fatal("compartment proc survived the crash")
	}
	if !hostFinished {
		t.Fatal("host proc was taken down by a compartment crash")
	}
	if !p.Crashed() || p.Crashes != 1 || p.Kernel != nil {
		t.Fatalf("crash bookkeeping: crashed=%v crashes=%d kernel=%v", p.Crashed(), p.Crashes, p.Kernel)
	}
}

func TestCrashIsIdempotent(t *testing.T) {
	p, err := Boot(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	p.Crash()
	p.Crash() // second crash of a dead compartment is a no-op
	if p.Crashes != 1 {
		t.Fatalf("crashes = %d, want 1", p.Crashes)
	}
}

func TestRunSupervisedRecoversFromCrash(t *testing.T) {
	p, err := Boot(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Crash the compartment once, 2 ms in: the first attempt dies, the
	// supervisor reboots and reruns, the second attempt completes.
	p.Sim.At(2_000_000, func() { p.Crash() })
	attempts := 0
	var res SupervisedResult
	_, err = p.HostLayer.Run(func(tc exec.TC) {
		var serr error
		res, serr = p.RunSupervised(tc, "job", 60, RestartPolicy{MaxRestarts: 2}, func(ktc exec.TC) {
			attempts++
			ktc.Charge(10_000_000)
		})
		if serr != nil {
			t.Errorf("supervised run failed: %v", serr)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (original + rerun)", attempts)
	}
	if res.Restarts != 1 || res.BootNS <= 0 {
		t.Fatalf("result = %+v, want 1 restart with boot time", res)
	}
	if p.Crashes != 1 || p.Reboots != 1 {
		t.Fatalf("crashes=%d reboots=%d", p.Crashes, p.Reboots)
	}
}

func TestRunSupervisedRestartBudget(t *testing.T) {
	p, err := Boot(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Crash on a period shorter than the job: every attempt dies. The
	// ticker is bounded so the event queue eventually drains.
	ticks := 0
	var crashTick func()
	crashTick = func() {
		p.Crash()
		if ticks++; ticks < 20 {
			p.Sim.After(3_000_000, crashTick)
		}
	}
	p.Sim.At(2_000_000, crashTick)
	_, err = p.HostLayer.Run(func(tc exec.TC) {
		_, serr := p.RunSupervised(tc, "doomed", 60, RestartPolicy{MaxRestarts: 2}, func(ktc exec.TC) {
			ktc.Charge(50_000_000)
		})
		if serr == nil {
			t.Error("expected restart-budget exhaustion")
		} else if !strings.Contains(serr.Error(), "budget exhausted") {
			t.Errorf("error = %v", serr)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Reboots != 2 {
		t.Fatalf("reboots = %d, want exactly the budget (2)", p.Reboots)
	}
}

// TestCrashInsideTaskgroupMember crashes the compartment while one of
// its threads is inside a taskgroup member body with cancellation on.
// The runtime contains panics of member tasks (it cancels the group and
// re-raises at the end of the construct), but the unwinding of a killed
// thread is not a panic of user code: the thread must die where it
// stands, with no group cancelled on its behalf and no runtime code
// executed by a dead thread.
func TestCrashInsideTaskgroupMember(t *testing.T) {
	p, err := Boot(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	cancels := 0
	spine := ompt.NewSpine().On(func(ompt.Event) { cancels++ }, ompt.Cancel)
	rt := omp.New(p.Kernel.Layer, omp.Options{Cancellation: true, Spine: spine})
	inBody, survived, deferred := false, false, false
	var job *sim.Proc
	_, err = p.HostLayer.Run(func(tc exec.TC) {
		p.SpawnInCompartment("job", 60, func(ktc exec.TC) {
			job = ktc.(exec.ProcHolder).Proc()
			rt.Parallel(ktc, 1, func(w *omp.Worker) {
				w.Taskgroup(func(w *omp.Worker) {
					w.TaskIf(false, func(w *omp.Worker) {
						defer func() { deferred = true }()
						inBody = true
						w.TC().Charge(50_000_000) // dies mid-flight
						survived = true
					})
				})
				survived = true
			})
		})
		p.Sim.At(p.Sim.Now()+1_000_000, func() { p.Crash() })
		tc.Charge(5_000_000)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !inBody || survived {
		t.Fatalf("inBody=%v survived=%v: the thread must die inside the member body", inBody, survived)
	}
	if !deferred {
		t.Fatal("deferred call in the member body did not run while the thread unwound")
	}
	if job.State() != sim.StateDone {
		t.Fatalf("compartment thread is %v, want done", job.State())
	}
	if cancels != 0 {
		t.Fatalf("%d cancel event(s): the kill was recorded as a member-task panic", cancels)
	}
}
