package bench

import (
	"fmt"
	"io"

	"github.com/interweaving/komp/internal/core"
	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/fault"
	"github.com/interweaving/komp/internal/machine"
	"github.com/interweaving/komp/internal/omp"
)

// AblationCancel is the cancellation study. Section one measures
// cancellation propagation latency — the virtual time from one thread's
// Cancel(parallel) until the last teammate has observed it at a
// cancellation point and left the region — across 8XEON team sizes, for
// the flat central-word poll against the barrier-tree propagation.
// Section two composes cancellation with the resilience machinery: a
// region deadline and a CPU-offline fault plan land on the same join,
// and the loop must abort gracefully with a clean partial result (every
// completed chunk counted exactly once, survivors converged). All
// numbers are virtual-time derived, so the report is byte-identical
// across runs with the same seed.
func AblationCancel(w io.Writer, opt Options) error {
	if err := cancelLatency(w, opt); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return cancelFaultCompose(w, opt)
}

// cancelLatency: every thread polls CancellationPoint on a fixed
// cadence; thread 0 cancels the region after a warmup. The latency is
// max(observation) - publish. Flat polling misses on one shared word —
// every observer serializes on its cache line, O(n) at the tail — while
// tree propagation copies the bits down the barrier arrival tree, so a
// poller only ever misses on a line shared by its fanout siblings.
func cancelLatency(w io.Writer, opt Options) error {
	m := machine.XEON8()
	scales := []int{24, 48, 96, 192}
	if opt.Quick {
		scales = []int{24, 96}
	}
	const pollGapNS = 2_000

	latency := func(prop omp.CancelProp, n int) (int64, error) {
		env := core.New(core.Config{Machine: m, Kind: core.RTK, Seed: opt.seed(),
			Threads: n, OMP: omp.Options{Cancellation: true, CancelProp: prop}})
		rt := env.OMPRuntime()
		var published int64
		exit := make([]int64, n)
		_, err := env.Layer.Run(func(tc exec.TC) {
			rt.Parallel(tc, n, func(wk *omp.Worker) {
				if wk.ThreadNum() == 0 {
					// Warm up past the fork so every teammate is polling.
					wk.TC().Charge(50_000)
					wk.Cancel(omp.CancelParallel)
					published = wk.TC().Now()
					exit[0] = published
					return
				}
				for !wk.CancellationPoint(omp.CancelParallel) {
					wk.TC().Charge(pollGapNS)
				}
				exit[wk.ThreadNum()] = wk.TC().Now()
			})
			rt.Close(tc)
		})
		if err != nil {
			return 0, err
		}
		var last int64
		for _, e := range exit {
			if e > last {
				last = e
			}
		}
		return last - published, nil
	}

	fmt.Fprintln(w, "Ablation: cancellation propagation latency, RTK on 8XEON (us from Cancel to last observer)")
	scaleHeader(w, fmt.Sprintf("%-14s", "propagation"), scales)
	for _, p := range []struct {
		label string
		prop  omp.CancelProp
	}{{"cancel-flat", omp.CancelPropFlat}, {"cancel-tree", omp.CancelPropTree}} {
		err := scaleRow(w, fmt.Sprintf("%-14s", p.label), scales, func(n int) (float64, error) {
			ns, err := latency(p.prop, n)
			if err != nil {
				return 0, err
			}
			opt.Recorder.Add(Record{Figure: "cancel", Construct: p.label,
				Env: "rtk", Cores: n, CancelLatencyNS: ns})
			return float64(ns) / 1000, nil
		})
		if err != nil {
			return err
		}
	}
	fmt.Fprintln(w, "\n(flat polling serializes every observer on the one cancel word's cache")
	fmt.Fprintln(w, " line; tree propagation copies the bits down the barrier arrival tree,")
	fmt.Fprintln(w, " so each poller misses only on a line shared with its fanout siblings)")
	return nil
}

// cancelFaultCompose: an EP-style loop on a Resilient + cancellable
// team, with a region deadline armed and a CPU-offline fault scheduled
// so the shrink and the deadline cancellation land on the same join.
// The partial result is clean when every chunk that completed was
// counted exactly once and the survivors all converged.
func cancelFaultCompose(w io.Writer, opt Options) error {
	iters := 400
	if opt.Quick {
		iters = 200
	}
	const deadlineNS = 800_000 // fires mid-loop at both scales
	type scenario struct {
		label, plan string
		deadline    int64
	}
	scenarios := []scenario{
		{"none", "none", 0},
		{"deadline", "none", deadlineNS},
		{"deadline+off", "cpu-offline@400us:5", deadlineNS},
		{"deadline+storm", "cpu-offline@400us:5;irq-storm@200us:2+1ms", deadlineNS},
	}

	fmt.Fprintf(w, "Fault-composed abort: EP-style loop, %d threads, %d chunks of 50us (Resilient + OMP_CANCELLATION on)\n", faultThreads, iters)
	fmt.Fprintf(w, "%-16s %-40s %10s %9s %9s %10s\n", "scenario", "plan", "chunks", "clean", "alive", "time(ms)")

	for i, sc := range scenarios {
		plan, err := fault.Parse(sc.plan)
		if err != nil {
			return err
		}
		plan.Seed = opt.seed() + int64(i)
		marks, alive, _, elapsed, err := epUnderFaults(opt.seed(), plan, iters,
			omp.Options{Cancellation: true, RegionDeadlineNS: sc.deadline})
		if err != nil {
			return err
		}
		done := 0
		clean := "yes"
		for _, m := range marks {
			done += m
			if m > 1 {
				clean = "NO (chunk ran twice)"
			}
		}
		cancelled := done < iters
		chunks := fmt.Sprintf("%d/%d", done, iters)
		fmt.Fprintf(w, "%-16s %-40s %10s %9s %5d/%-3d %10.2f\n",
			sc.label, sc.plan, chunks, clean, alive, faultThreads, float64(elapsed)/1e6)
		opt.Recorder.Add(Record{Figure: "cancel", Construct: "fault-compose-" + sc.label,
			Env: "sim", Cores: faultThreads, Seconds: float64(elapsed) / 1e9,
			Cancelled: cancelled, DeadlineNS: sc.deadline})
	}
	fmt.Fprintln(w, "(the deadline alarm publishes the same cancel bit a thread would; the")
	fmt.Fprintln(w, " offlined worker's departure and the cancelled survivors meet at the")
	fmt.Fprintln(w, " region's dedicated join, which completes under either count)")
	return nil
}
