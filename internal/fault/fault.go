// Package fault is a deterministic, seeded fault-plan engine for the
// discrete-event simulator. A Plan names faults either scheduled at
// virtual times (CPU offline, accelerator CU offline, IRQ storm) or
// injected by seeded probability at a well-defined probe point (lost
// futex wakes).
//
// Determinism: the engine draws from its own RNG stream, seeded from
// Plan.Seed, never from the workload simulator's RNG. Probes are rolled
// at deterministic points of the DES schedule (one proc runs at a time),
// so two runs of the same workload with the same plan inject byte-for-
// byte identical fault sequences — a failing run can always be replayed.
//
// The engine knows nothing about the layers above the simulator. The
// probe (LoseWake) is a plain func() bool value the execution layer
// accepts, and scheduled faults invoke caller-provided Handlers, so
// exec/omp/device stay decoupled from this package.
package fault

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"github.com/interweaving/komp/internal/sim"
)

// Kind enumerates injectable fault classes.
type Kind int

// Fault kinds. The first group is scheduled at virtual times; the second
// is probability-driven at probe points.
const (
	// CPUOffline takes a CPU out of service at a virtual time (Arg: CPU).
	CPUOffline Kind = iota
	// IRQStorm floods a CPU with interrupts for a duration (Arg: CPU,
	// Dur: storm length).
	IRQStorm
	// CUOffline takes an accelerator compute unit out of service at a
	// virtual time (Arg: CU). The device league re-deals the dead CU's
	// queued blocks to surviving teams.
	CUOffline

	// LostWake drops a futex wake-up (rate-driven).
	LostWake
)

func (k Kind) String() string {
	switch k {
	case CPUOffline:
		return "cpu-offline"
	case IRQStorm:
		return "irq-storm"
	case CUOffline:
		return "cu-offline"
	case LostWake:
		return "lost-wake"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one scheduled fault.
type Event struct {
	At   sim.Time
	Kind Kind
	Arg  int      // CPU or CU id
	Dur  sim.Time // IRQStorm only: storm duration
}

// Plan is a complete, self-describing fault plan.
type Plan struct {
	// Seed feeds the engine's private RNG stream (probe rolls). The
	// workload's own seed is untouched.
	Seed int64

	// Scheduled faults, applied in virtual-time order.
	Events []Event

	// LostWakeRate is the futex wake-loss probe rate, in [0, 1].
	LostWakeRate float64
}

// Empty reports whether the plan injects nothing.
func (p Plan) Empty() bool {
	return len(p.Events) == 0 && p.LostWakeRate == 0
}

// String renders the plan in the same directive format Parse accepts.
func (p Plan) String() string {
	var parts []string
	if p.Seed != 0 {
		parts = append(parts, fmt.Sprintf("seed=%d", p.Seed))
	}
	if p.LostWakeRate > 0 {
		parts = append(parts, fmt.Sprintf("lostwake=%g", p.LostWakeRate))
	}
	for _, e := range p.Events {
		s := fmt.Sprintf("%s@%s:%d", e.Kind, fmtDur(e.At), e.Arg)
		if e.Kind == IRQStorm {
			s += "+" + fmtDur(e.Dur)
		}
		parts = append(parts, s)
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ";")
}

func fmtDur(t sim.Time) string {
	switch {
	case t%sim.Second == 0 && t != 0:
		return fmt.Sprintf("%ds", t/sim.Second)
	case t%sim.Millisecond == 0 && t != 0:
		return fmt.Sprintf("%dms", t/sim.Millisecond)
	case t%sim.Microsecond == 0 && t != 0:
		return fmt.Sprintf("%dus", t/sim.Microsecond)
	default:
		return fmt.Sprintf("%dns", t)
	}
}

// Parse reads a plan from its compact directive syntax: semicolon-
// separated terms, each either the lost-wake rate (`lostwake=0.02`),
// the RNG seed (`seed=42`), or a scheduled fault `kind@time:arg` with
// time suffixed ns/us/ms/s — e.g. `cpu-offline@2ms:3`, `cu-offline@1ms:1`,
// `irq-storm@500us:0+2ms` (the `+dur` suffix gives the storm length).
//
// A malformed plan fails with an error naming the offending term and
// its byte offset in the input, so a long plan assembled by tooling
// pinpoints the bad directive instead of just rejecting the string.
func Parse(s string) (Plan, error) {
	var p Plan
	if t := strings.TrimSpace(s); t == "" || t == "none" {
		return p, nil
	}
	pos := 0
	for termNo := 1; pos <= len(s); termNo++ {
		raw := s[pos:]
		if i := strings.IndexByte(raw, ';'); i >= 0 {
			raw = raw[:i]
		}
		off := pos + leadingSpace(raw)
		pos += len(raw) + 1
		term := strings.TrimSpace(raw)
		if term == "" {
			continue
		}
		fail := func(err error) (Plan, error) {
			return Plan{}, fmt.Errorf("fault: term %d (%q, at offset %d): %w", termNo, term, off, err)
		}
		if k, v, ok := strings.Cut(term, "="); ok && !strings.Contains(k, "@") {
			if err := p.setRate(k, v); err != nil {
				return fail(err)
			}
			continue
		}
		ev, err := parseEvent(term)
		if err != nil {
			return fail(err)
		}
		p.Events = append(p.Events, ev)
	}
	sort.SliceStable(p.Events, func(i, j int) bool { return p.Events[i].At < p.Events[j].At })
	return p, nil
}

// leadingSpace counts the whitespace bytes a term's offset skips over.
func leadingSpace(s string) int {
	return len(s) - len(strings.TrimLeft(s, " \t"))
}

// setRate and the parse helpers below return bare messages naming the
// offending token; Parse wraps them with the term's index and offset.
func (p *Plan) setRate(k, v string) error {
	if k == "seed" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return fmt.Errorf("bad seed value %q (want an integer)", v)
		}
		p.Seed = n
		return nil
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || !(f >= 0 && f <= 1) { // NaN fails both comparisons
		return fmt.Errorf("bad rate value %q for %q (want a number in [0,1])", v, k)
	}
	if k != "lostwake" {
		return fmt.Errorf("unknown rate name %q (want lostwake or seed)", k)
	}
	p.LostWakeRate = f
	return nil
}

func parseEvent(term string) (Event, error) {
	kindStr, rest, ok := strings.Cut(term, "@")
	if !ok {
		return Event{}, fmt.Errorf("malformed term (want kind@time:arg or rate=x)")
	}
	var kind Kind
	switch kindStr {
	case "cpu-offline":
		kind = CPUOffline
	case "irq-storm":
		kind = IRQStorm
	case "cu-offline":
		kind = CUOffline
	default:
		return Event{}, fmt.Errorf("unknown scheduled fault %q (want cpu-offline, cu-offline or irq-storm)", kindStr)
	}
	timeStr, argStr, ok := strings.Cut(rest, ":")
	if !ok {
		return Event{}, fmt.Errorf("missing :arg after time %q", rest)
	}
	at, err := parseDur(timeStr)
	if err != nil {
		return Event{}, err
	}
	ev := Event{At: at, Kind: kind}
	if kind == IRQStorm {
		if a, d, ok := strings.Cut(argStr, "+"); ok {
			ev.Dur, err = parseDur(d)
			if err != nil {
				return Event{}, err
			}
			argStr = a
		} else {
			ev.Dur = sim.Millisecond
		}
	}
	ev.Arg, err = strconv.Atoi(argStr)
	if err != nil {
		return Event{}, fmt.Errorf("bad arg %q (want an integer CPU or CU id)", argStr)
	}
	return ev, nil
}

func parseDur(s string) (sim.Time, error) {
	digits := s
	unit := sim.Nanosecond
	switch {
	case strings.HasSuffix(s, "ns"):
		digits = s[:len(s)-2]
	case strings.HasSuffix(s, "us"):
		digits, unit = s[:len(s)-2], sim.Microsecond
	case strings.HasSuffix(s, "ms"):
		digits, unit = s[:len(s)-2], sim.Millisecond
	case strings.HasSuffix(s, "s"):
		digits, unit = s[:len(s)-1], sim.Second
	}
	n, err := strconv.ParseInt(digits, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad duration %q (want a non-negative integer with an ns/us/ms/s suffix)", s)
	}
	if n > math.MaxInt64/unit {
		return 0, fmt.Errorf("duration %q overflows the 64-bit nanosecond clock", s)
	}
	return n * unit, nil
}

// Handlers receives scheduled faults. A nil field means that fault kind
// is ignored (counted but with no effect). IRQ storms need no handler:
// the engine steals the CPU time directly from the simulated timeline.
type Handlers struct {
	CPUOffline func(cpu int)
	CUOffline  func(cu int)
}

// Engine instantiates a Plan against one simulator run.
type Engine struct {
	Plan Plan

	sim *sim.Sim
	rng *rand.Rand

	// Injected counts faults actually delivered, per kind.
	Injected map[Kind]int64
}

// IRQ storm shape: one interrupt every period, each stealing cost from
// the CPU, matching the dedicated-IRQ-line pressure of §5's NIC study.
const (
	stormPeriodNS = 10 * sim.Microsecond
	stormCostNS   = 4 * sim.Microsecond
)

// New creates an engine for plan p over s. Scheduled faults are armed
// immediately via Arm; probes are live from the start.
func New(s *sim.Sim, p Plan) *Engine {
	return &Engine{
		Plan:     p,
		sim:      s,
		rng:      rand.New(rand.NewSource(p.Seed ^ 0x5eed_fa17)),
		Injected: make(map[Kind]int64),
	}
}

// Arm schedules the plan's timed faults on the simulator, routing each to
// the matching handler. Call it once, before the simulation runs.
func (e *Engine) Arm(h Handlers) {
	for _, ev := range e.Plan.Events {
		ev := ev
		e.sim.At(ev.At, func() {
			e.Injected[ev.Kind]++
			switch ev.Kind {
			case CPUOffline:
				if h.CPUOffline != nil {
					h.CPUOffline(ev.Arg)
				}
			case CUOffline:
				if h.CUOffline != nil {
					h.CUOffline(ev.Arg)
				}
			case IRQStorm:
				e.stormCPU(ev.Arg, ev.Dur)
			}
		})
	}
}

// stormCPU is the built-in IRQ storm: interrupts arrive every
// stormPeriodNS for dur, each stealing stormCostNS of the CPU's timeline
// — exactly how a hardware IRQ preempts whatever compute segment is in
// flight.
func (e *Engine) stormCPU(cpu int, dur sim.Time) {
	if cpu < 0 || cpu >= e.sim.NumCPU() {
		return
	}
	end := e.sim.Now() + dur
	var tick func()
	tick = func() {
		c := e.sim.CPU(cpu)
		if c.FreeAt < e.sim.Now() {
			c.FreeAt = e.sim.Now()
		}
		c.FreeAt += stormCostNS
		c.BusyNS += stormCostNS
		if e.sim.Now()+stormPeriodNS < end {
			e.sim.After(stormPeriodNS, tick)
		}
	}
	tick()
}

// roll draws one probe decision at rate r.
func (e *Engine) roll(k Kind, r float64) bool {
	if r <= 0 {
		return false
	}
	if r < 1 && e.rng.Float64() >= r {
		return false
	}
	e.Injected[k]++
	return true
}

// LoseWake reports whether the next futex wake should be dropped.
func (e *Engine) LoseWake() bool { return e.roll(LostWake, e.Plan.LostWakeRate) }

// InjectedTotal returns the total number of faults delivered.
func (e *Engine) InjectedTotal() int64 {
	var n int64
	for _, c := range e.Injected {
		n += c
	}
	return n
}
