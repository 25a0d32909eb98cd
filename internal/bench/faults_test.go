package bench

import (
	"strings"
	"testing"

	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/sim"
)

// TestAblationFaultsRecovers pins the acceptance behavior of the
// resilience study: the shrunken OpenMP team covers every iteration
// exactly once.
func TestAblationFaultsRecovers(t *testing.T) {
	var b strings.Builder
	if err := AblationFaults(&b, Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "6/8") { // two CPUs gone, six survivors finished
		t.Errorf("output lacks %q:\n%s", "6/8", out)
	}
	if strings.Contains(out, "BAD") {
		t.Errorf("a shrunken loop lost or repeated iterations:\n%s", out)
	}
}

// TestAblationFaultsDeterministic: two runs with the same seed must be
// byte-identical — the whole point of a seeded fault plan.
func TestAblationFaultsDeterministic(t *testing.T) {
	var a, b strings.Builder
	if err := AblationFaults(&a, Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	if err := AblationFaults(&b, Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("same-seed runs diverged:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", a.String(), b.String())
	}
}

// TestIRQStormStealsCPUTime: an armed storm steals time from whatever
// compute segment the stormed CPU runs, so a 100 x 10us loop ends later.
func TestIRQStormStealsCPUTime(t *testing.T) {
	run := func(p faultPlan) (end sim.Time, injected int64) {
		s := sim.New(1, 1)
		n := p.arm(exec.NewSimLayer(s, exec.Costs{}), nil, 1)
		s.Go("w", 0, 0, func(pr *sim.Proc) {
			for i := 0; i < 100; i++ {
				pr.Compute(10 * sim.Microsecond)
			}
			end = pr.Now()
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return end, *n
	}
	clean, _ := run(faultPlan{})
	stormy, injected := run(faultPlan{storm: &irqStorm{dur: sim.Millisecond}})
	if stormy <= clean {
		t.Fatalf("IRQ storm did not slow the workload: clean=%d stormy=%d", clean, stormy)
	}
	if injected != 1 {
		t.Fatalf("injected = %d, want 1 storm", injected)
	}
}

// TestWakeLossRNGIndependentOfWorkload: wake-loss rolls come from a
// stream of their own, so they replay per seed and never consume the
// workload simulator's RNG stream.
func TestWakeLossRNGIndependentOfWorkload(t *testing.T) {
	before := sim.New(1, 99).RNG().Int63()
	s := sim.New(1, 99)
	p := faultPlan{lostWake: 0.5}
	p.arm(exec.NewSimLayer(s, exec.Costs{}), nil, 1)
	roll := func() (out []bool, injected int64) {
		lose := p.wakeLoss(1, &injected)
		for i := 0; i < 50; i++ {
			out = append(out, lose())
		}
		return out, injected
	}
	a, lost := roll()
	b, _ := roll()
	if s.RNG().Int63() != before {
		t.Fatal("wake-loss rolls perturbed the workload RNG stream")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("roll %d differs between two streams of one seed", i)
		}
	}
	if lost < 10 || lost > 40 {
		t.Fatalf("lost %d/50 wakes, implausible for rate 0.5", lost)
	}
}
