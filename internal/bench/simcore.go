package bench

import (
	"fmt"
	"io"
	"os"
	"time"

	"github.com/interweaving/komp/internal/core"
	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/machine"
	"github.com/interweaving/komp/internal/omp"
	"github.com/interweaving/komp/internal/sim"
)

// AblationSimcore measures the DES core itself, on both queue
// algorithms (sim.NewEQ): first a raw event-storm throughput sweep —
// per-core timer streams, same-timestamp barrier-release storms, and
// armed-then-cancelled alarms, the event mix the simulated kernels
// generate — across {24..1024} simulated cores, then an end-to-end RTK
// barrier figure point on the synthetic 1024-core machine. Virtual
// results (events fired, spill counts, ns/barrier, heap/wheel
// agreement) are deterministic and go to stdout; wall-clock throughput
// (events/sec, the wheel speedup, the built-in acceptance check) is
// machine-dependent and goes to stderr so bench-smoke byte-identity
// holds. The ablation fails if the two queues disagree on any virtual
// result, or if the wheel does not beat the heap's events/sec at 192
// cores (the CI regression gate).
func AblationSimcore(w io.Writer, opt Options) error {
	scales := []int{24, 48, 96, 192, 1024}
	horizon := int64(1_000_000) // virtual ns of storm per scale
	rounds := 120               // barrier rounds at the 1024-core point
	if opt.Quick {
		scales = []int{192, 1024}
		horizon = 200_000
		rounds = 24
	}

	type cell struct {
		virtualNS int64
		events    int64
		spilled   int64
		wallSec   float64
	}
	algos := []sim.EQAlgo{sim.EQHeap, sim.EQWheel}

	// The event storm: two tick streams per core at staggered periods
	// (every 64th tick arms and immediately cancels an alarm — the
	// futex recheck pattern), and a coordinator that releases an n-wide
	// same-timestamp storm every 400 ns (a barrier release in
	// miniature). Pure scheduler callbacks: this is queue cost, not
	// goroutine-handoff cost.
	storm := func(algo sim.EQAlgo, n int) cell {
		s := sim.NewEQ(1, opt.seed(), algo)
		noop := func() {}
		// Standing far-future load: an armed timeout per core (region
		// deadlines, watchdogs, scheduled faults) that never fires
		// inside the horizon. The heap sifts past them on every
		// operation; the wheel keeps them in the spill level.
		for i := 0; i < n; i++ {
			s.At(sim.Time(horizon)+1_000_000+sim.Time(i), noop)
		}
		// Two timer streams per core (a scheduler tick and a profiling
		// tick) at staggered, mutually-prime-ish periods.
		ticks := make([]func(), 2*n)
		for i := range ticks {
			i := i
			period := sim.Time(96 + i%67)
			beat := 0
			ticks[i] = func() {
				beat++
				if beat%64 == 0 {
					cancel := s.AfterCancel(500, noop)
					cancel()
				}
				s.After(period, ticks[i])
			}
			s.After(sim.Time(1+i%97), ticks[i])
		}
		var release func()
		release = func() {
			at := s.Now() + 1 // all n at the same timestamp
			for i := 0; i < n; i++ {
				s.At(at, noop)
			}
			s.After(400, release)
		}
		s.After(400, release)
		start := time.Now()
		s.RunUntil(sim.Time(horizon))
		wall := time.Since(start).Seconds()
		return cell{int64(s.Now()), s.EventsFired(), s.EventsSpilled(), wall}
	}

	// The end-to-end figure point: an RTK barrier storm on the
	// synthetic 1024-core machine (16 sockets x 64 cores) — the scale
	// the heap-based queue could not sustain.
	barrier := func(algo sim.EQAlgo, n int) (cell, error) {
		env := core.New(core.Config{Machine: machine.BigIron(16, 64), Kind: core.RTK,
			Seed: opt.seed(), Threads: n, SimEQ: algo})
		rt := env.OMPRuntime()
		start := time.Now()
		elapsed, err := env.Layer.Run(func(tc exec.TC) {
			rt.Parallel(tc, n, func(wk *omp.Worker) {
				for r := 0; r < rounds; r++ {
					// Slightly skewed work so arrivals stagger and the
					// release is a same-timestamp storm.
					wk.TC().Charge(int64(100 + ((wk.ThreadNum()+r)%7)*13))
					wk.Barrier()
				}
			})
			rt.Close(tc)
		})
		wall := time.Since(start).Seconds()
		if err != nil {
			return cell{}, err
		}
		return cell{elapsed, env.Layer.Sim.EventsFired(), env.Layer.Sim.EventsSpilled(), wall}, nil
	}

	checkAgree := func(label string, n int, heap, wheel cell) error {
		if heap.virtualNS != wheel.virtualNS || heap.events != wheel.events {
			return fmt.Errorf("simcore %s at %d cores: heap and wheel disagree (virtual %d vs %d ns, %d vs %d events) — determinism broken",
				label, n, heap.virtualNS, wheel.virtualNS, heap.events, wheel.events)
		}
		return nil
	}
	eps := func(c cell) float64 { return float64(c.events) / c.wallSec }

	fmt.Fprintf(w, "Ablation: DES event queue — binary heap vs timer wheel\n")
	fmt.Fprintf(w, "Event storm: per-core ticks + same-timestamp releases + cancelled alarms, %d virtual us\n", horizon/1000)
	fmt.Fprintf(w, "%-6s %-6s %12s %10s %7s\n", "cores", "eq", "events", "spilled", "agree")
	for _, n := range scales {
		var cells [2]cell
		for i, algo := range algos {
			cells[i] = storm(algo, n)
		}
		heap, wheel := cells[0], cells[1]
		agree := heap.virtualNS == wheel.virtualNS && heap.events == wheel.events
		for i, algo := range algos {
			fmt.Fprintf(w, "%-6d %-6s %12d %10d %7v\n", n, algo, cells[i].events, cells[i].spilled, agree)
			opt.Recorder.Add(Record{
				Figure: "simcore", Construct: "EVENT-STORM", Env: "rtk", Cores: n,
				EQAlgo: algo.String(), EventsPerSec: eps(cells[i]),
			})
		}
		if err := checkAgree("storm", n, heap, wheel); err != nil {
			return err
		}
		speedup := eps(wheel) / eps(heap)
		fmt.Fprintf(os.Stderr, "simcore: storm %4d cores: heap %.2fM events/s, wheel %.2fM events/s (%.2fx)\n",
			n, eps(heap)/1e6, eps(wheel)/1e6, speedup)
		if n == 192 && eps(wheel) <= eps(heap) {
			return fmt.Errorf("simcore acceptance: wheel %.0f events/s did not beat heap %.0f events/s at 192 cores",
				eps(wheel), eps(heap))
		}
	}

	fmt.Fprintf(w, "Figure point: RTK barrier on 16x64 = 1024 cores, %d rounds\n", rounds)
	fmt.Fprintf(w, "%-6s %-6s %14s %12s %10s %7s\n", "cores", "eq", "vus/barrier", "events", "spilled", "agree")
	var cells [2]cell
	for i, algo := range algos {
		c, err := barrier(algo, 1024)
		if err != nil {
			return fmt.Errorf("simcore barrier %s: %w", algo, err)
		}
		cells[i] = c
	}
	heap, wheel := cells[0], cells[1]
	agree := heap.virtualNS == wheel.virtualNS && heap.events == wheel.events
	for i, algo := range algos {
		c := cells[i]
		fmt.Fprintf(w, "%-6d %-6s %14.2f %12d %10d %7v\n",
			1024, algo, float64(c.virtualNS)/float64(rounds)/1e3, c.events, c.spilled, agree)
		opt.Recorder.Add(Record{
			Figure: "simcore", Construct: "BARRIER-1024", Env: "rtk", Cores: 1024,
			MedianNS: float64(c.virtualNS) / float64(rounds),
			EQAlgo:   algo.String(), EventsPerSec: eps(c),
		})
	}
	if err := checkAgree("barrier", 1024, heap, wheel); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "simcore: barrier 1024 cores: heap %.2fs wall, wheel %.2fs wall (%.2fx)\n",
		heap.wallSec, wheel.wallSec, heap.wallSec/wheel.wallSec)
	return nil
}
