package fault

import (
	"strings"
	"testing"

	"github.com/interweaving/komp/internal/sim"
)

func TestParseRoundTrip(t *testing.T) {
	const src = "seed=42;lostwake=0.01;cpu-offline@2ms:3;cu-offline@1ms:1;irq-storm@500us:0+2ms"
	p, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 42 || p.LostWakeRate != 0.01 {
		t.Fatalf("rates: %+v", p)
	}
	if len(p.Events) != 3 {
		t.Fatalf("events = %d, want 3", len(p.Events))
	}
	// Events sort by time: irq-storm@500us, cu-offline@1ms, cpu-offline@2ms.
	if p.Events[0].Kind != IRQStorm || p.Events[0].At != 500*sim.Microsecond || p.Events[0].Dur != 2*sim.Millisecond {
		t.Fatalf("event[0] = %+v", p.Events[0])
	}
	if p.Events[1].Kind != CUOffline || p.Events[1].Arg != 1 {
		t.Fatalf("event[1] = %+v", p.Events[1])
	}
	if p.Events[2].Kind != CPUOffline || p.Events[2].Arg != 3 || p.Events[2].At != 2*sim.Millisecond {
		t.Fatalf("event[2] = %+v", p.Events[2])
	}
	// String() re-parses to the same plan.
	p2, err := Parse(p.String())
	if err != nil {
		t.Fatalf("re-parse %q: %v", p.String(), err)
	}
	if p2.String() != p.String() {
		t.Fatalf("round trip: %q vs %q", p.String(), p2.String())
	}
}

func TestParseEmptyAndErrors(t *testing.T) {
	for _, src := range []string{"", "none", "  "} {
		p, err := Parse(src)
		if err != nil || !p.Empty() {
			t.Fatalf("Parse(%q) = %+v, %v", src, p, err)
		}
	}
	for _, src := range []string{"lostwake=1.5", "bogus=0.1", "cpu-offline@2ms", "frob@1ms:0", "lostwake=x", "cpu-offline@2ms:zz"} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

// TestParseErrorsNameTokenAndPosition: a malformed plan's error must
// carry the offending token verbatim plus its term index and byte
// offset, so a bad directive in a long tool-assembled plan is
// pinpointed rather than the whole string rejected opaquely.
func TestParseErrorsNameTokenAndPosition(t *testing.T) {
	cases := []struct {
		src  string
		want []string // substrings the error must contain
	}{
		{"lostwake=1.5", []string{`term 1`, `"lostwake=1.5"`, `offset 0`, `"1.5"`, `[0,1]`}},
		{"lostwake=0.1;bogus=0.2", []string{`term 2`, `"bogus=0.2"`, `offset 13`, `"bogus"`, `lostwake or seed`}},
		{"lostwake=0.1; cpu-offline@2ms", []string{`term 2`, `"cpu-offline@2ms"`, `offset 14`, `missing :arg`}},
		{"frob@1ms:0", []string{`term 1`, `"frob"`, `cpu-offline, cu-offline or irq-storm`}},
		{"cpu-offline@2xs:3", []string{`term 1`, `duration "2xs"`, `ns/us/ms/s`}},
		{"cpu-offline@2ms:zz", []string{`term 1`, `arg "zz"`, `integer`}},
		{"seed=abc", []string{`term 1`, `seed value "abc"`, `integer`}},
		{"irq-storm@1ms:0+9qs", []string{`term 1`, `duration "9qs"`}},
		{"lostwake=NaN", []string{`term 1`, `rate value "NaN"`, `[0,1]`}},
		{"cpu-offline@10000000000s:1", []string{`term 1`, `duration "10000000000s" overflows`}},
		{"irq-storm@1ms:0+99999999999999s", []string{`term 1`, `duration "99999999999999s" overflows`}},
	}
	for _, c := range cases {
		_, err := Parse(c.src)
		if err == nil {
			t.Errorf("Parse(%q): expected error", c.src)
			continue
		}
		for _, sub := range c.want {
			if !strings.Contains(err.Error(), sub) {
				t.Errorf("Parse(%q) error %q: missing %q", c.src, err, sub)
			}
		}
	}
}

func TestProbesDeterministic(t *testing.T) {
	roll := func() []bool {
		s := sim.New(1, 1)
		e := New(s, Plan{Seed: 7, LostWakeRate: 0.3})
		out := make([]bool, 0, 100)
		for i := 0; i < 100; i++ {
			out = append(out, e.LoseWake())
		}
		return out
	}
	a, b := roll(), roll()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("probe %d differs between identical runs", i)
		}
	}
	lost := 0
	for _, l := range a {
		if l {
			lost++
		}
	}
	if lost < 10 || lost > 60 {
		t.Fatalf("lost-wake count %d/100 implausible for rate 0.3", lost)
	}
}

func TestEngineRNGIndependentOfWorkload(t *testing.T) {
	// Probe rolls must not consume the workload simulator's RNG stream.
	s := sim.New(1, 99)
	before := s.RNG().Int63()
	s2 := sim.New(1, 99)
	e := New(s2, Plan{Seed: 1, LostWakeRate: 0.5})
	for i := 0; i < 50; i++ {
		e.LoseWake()
	}
	after := s2.RNG().Int63()
	if before != after {
		t.Fatal("fault probes perturbed the workload RNG stream")
	}
}

func TestArmDeliversScheduledFaults(t *testing.T) {
	s := sim.New(2, 1)
	p, err := Parse("cpu-offline@500ns:1;cu-offline@900ns:0")
	if err != nil {
		t.Fatal(err)
	}
	e := New(s, p)
	var offlined, deadCUs []int
	var offAt, cuAt sim.Time
	e.Arm(Handlers{
		CPUOffline: func(cpu int) { offlined = append(offlined, cpu); offAt = s.Now() },
		CUOffline:  func(cu int) { deadCUs = append(deadCUs, cu); cuAt = s.Now() },
	})
	s.Go("w", 0, 0, func(pr *sim.Proc) { pr.Compute(2000) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(offlined) != 1 || offlined[0] != 1 || offAt != 500 {
		t.Fatalf("offline = %v at %d", offlined, offAt)
	}
	if len(deadCUs) != 1 || deadCUs[0] != 0 || cuAt != 900 {
		t.Fatalf("cu-offline = %v at %d", deadCUs, cuAt)
	}
	if e.Injected[CPUOffline] != 1 || e.Injected[CUOffline] != 1 {
		t.Fatalf("injected = %v", e.Injected)
	}
}

func TestBuiltinIRQStormStealsCPUTime(t *testing.T) {
	run := func(storm bool) sim.Time {
		s := sim.New(1, 1)
		if storm {
			p, err := Parse("irq-storm@0ns:0+1ms")
			if err != nil {
				t.Fatal(err)
			}
			New(s, p).Arm(Handlers{})
		}
		var end sim.Time
		s.Go("w", 0, 0, func(pr *sim.Proc) {
			for i := 0; i < 100; i++ {
				pr.Compute(10 * sim.Microsecond)
			}
			end = pr.Now()
		})
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return end
	}
	clean, stormy := run(false), run(true)
	if stormy <= clean {
		t.Fatalf("IRQ storm did not slow the workload: clean=%d stormy=%d", clean, stormy)
	}
}

// TestCUOfflineParseArmSummary: the accelerator fault directive parses,
// round-trips through String, dispatches to the CUOffline handler at its
// scheduled time, and shows up in the delivered-fault counts — the hook
// the device league's re-deal composes with.
func TestCUOfflineParseArmSummary(t *testing.T) {
	p, err := Parse("cu-offline@2ms:1;cu-offline@3ms:0")
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 2 || p.Events[0].Kind != CUOffline || p.Events[0].Arg != 1 ||
		p.Events[0].At != 2*sim.Millisecond {
		t.Fatalf("events = %+v", p.Events)
	}
	if got := p.String(); got != "cu-offline@2ms:1;cu-offline@3ms:0" {
		t.Fatalf("String() = %q", got)
	}

	s := sim.New(2, 1)
	e := New(s, p)
	var dead []int
	var at []sim.Time
	e.Arm(Handlers{CUOffline: func(cu int) { dead = append(dead, cu); at = append(at, s.Now()) }})
	s.Go("w", 0, 0, func(pr *sim.Proc) { pr.Compute(4 * sim.Millisecond) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(dead) != 2 || dead[0] != 1 || dead[1] != 0 ||
		at[0] != 2*sim.Millisecond || at[1] != 3*sim.Millisecond {
		t.Fatalf("delivered %v at %v", dead, at)
	}
	if e.Injected[CUOffline] != 2 {
		t.Fatalf("injected = %v", e.Injected)
	}
	if e.InjectedTotal() != 2 {
		t.Fatalf("InjectedTotal() = %d, want 2", e.InjectedTotal())
	}
}
