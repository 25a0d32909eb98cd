package komp

// One benchmark per table and figure of the paper's evaluation (§6).
// Each figure regenerates deterministically on the simulated machines;
// a single iteration is the full-fidelity regeneration, so `go test
// -bench=.` runs each exactly once (the first iteration exceeds the
// default benchtime). Micro-benchmarks for the substrate primitives
// follow.

import (
	"io"
	"testing"

	"github.com/interweaving/komp/internal/bench"
	"github.com/interweaving/komp/internal/core"
	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/machine"
	"github.com/interweaving/komp/internal/memsim"
	"github.com/interweaving/komp/internal/nas"
	"github.com/interweaving/komp/internal/omp"
	"github.com/interweaving/komp/internal/sim"
	"github.com/interweaving/komp/internal/virgil"
)

func benchFigure(b *testing.B, id string) {
	b.Helper()
	f, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("unknown figure %s", id)
	}
	for i := 0; i < b.N; i++ {
		if err := f.Run(io.Discard, bench.Options{Seed: 42}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6Table regenerates the Figure 6 design-tradeoff table.
func BenchmarkFig6Table(b *testing.B) { benchFigure(b, "fig6") }

// BenchmarkFig7EPCCRTKPhi regenerates Figure 7 (EPCC, RTK vs Linux, PHI).
func BenchmarkFig7EPCCRTKPhi(b *testing.B) { benchFigure(b, "fig7") }

// BenchmarkFig8EPCCPIKPhi regenerates Figure 8 (EPCC, PIK vs Linux, PHI).
func BenchmarkFig8EPCCPIKPhi(b *testing.B) { benchFigure(b, "fig8") }

// BenchmarkFig9NASRTKPhi regenerates Figure 9 (NAS, RTK vs Linux, PHI).
func BenchmarkFig9NASRTKPhi(b *testing.B) { benchFigure(b, "fig9") }

// BenchmarkFig10NASPIKPhi regenerates Figure 10 (NAS, PIK vs Linux, PHI).
func BenchmarkFig10NASPIKPhi(b *testing.B) { benchFigure(b, "fig10") }

// BenchmarkFig11CCKAbsolutePhi regenerates Figure 11 (CCK absolute, PHI).
func BenchmarkFig11CCKAbsolutePhi(b *testing.B) { benchFigure(b, "fig11") }

// BenchmarkFig12CCKRelativePhi regenerates Figure 12 (CCK relative, PHI).
func BenchmarkFig12CCKRelativePhi(b *testing.B) { benchFigure(b, "fig12") }

// BenchmarkFig13EPCC8Xeon regenerates Figure 13 (EPCC, 192 cores 8XEON).
func BenchmarkFig13EPCC8Xeon(b *testing.B) { benchFigure(b, "fig13") }

// BenchmarkFig14NAS8Xeon regenerates Figure 14 (NAS, RTK+PIK, 8XEON).
func BenchmarkFig14NAS8Xeon(b *testing.B) { benchFigure(b, "fig14") }

// BenchmarkFig15CCK8Xeon regenerates Figure 15 (CCK relative, 8XEON).
func BenchmarkFig15CCK8Xeon(b *testing.B) { benchFigure(b, "fig15") }

// --- Substrate micro-benchmarks (host performance of the simulator) ---

// BenchmarkBuddyAllocFree measures the kernel buddy allocator.
func BenchmarkBuddyAllocFree(b *testing.B) {
	buddy, err := memsim.NewBuddy(1 << 30)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off, ok := buddy.Alloc(8192)
		if !ok {
			b.Fatal("alloc failed")
		}
		if err := buddy.Free(off); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimEventThroughput measures raw DES event processing.
func BenchmarkSimEventThroughput(b *testing.B) {
	s := sim.New(4, 1)
	n := b.N
	s.Go("p", 0, 0, func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Compute(10)
		}
	})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkOMPBarrierSim measures the simulated team barrier at 16
// threads (events per barrier round).
func BenchmarkOMPBarrierSim(b *testing.B) {
	env := core.New(core.Config{Machine: machine.PHI(), Kind: core.RTK, Seed: 1, Threads: 16})
	rt := env.OMPRuntime()
	n := b.N
	b.ResetTimer()
	_, err := env.Layer.Run(func(tc exec.TC) {
		rt.Parallel(tc, 16, func(w *omp.Worker) {
			for i := 0; i < n; i++ {
				w.Barrier()
			}
		})
		rt.Close(tc)
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkOMPParallelForReal measures a real-goroutine worksharing loop.
func BenchmarkOMPParallelForReal(b *testing.B) {
	o := New(4)
	defer o.Close()
	data := make([]float64, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.ParallelFor(0, 0, len(data), ForOpt{Sched: Static}, func(j int) {
			data[j] += 1
		})
	}
}

// BenchmarkVirgilSubmitSim measures kernel-VIRGIL task round-trips.
func BenchmarkVirgilSubmitSim(b *testing.B) {
	env := core.New(core.Config{Machine: machine.PHI(), Kind: core.CCK, Seed: 1, Threads: 8})
	v := env.Virgil()
	n := b.N
	b.ResetTimer()
	_, err := env.Layer.Run(func(tc exec.TC) {
		v.Start(tc)
		g := virgil.NewGroup(n)
		fns := make([]func(exec.TC), n)
		for i := range fns {
			fns[i] = func(wtc exec.TC) { wtc.Charge(100); g.Done(wtc) }
		}
		v.SubmitBatch(tc, fns)
		g.Wait(tc)
		v.Stop(tc)
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkNASModelRun measures one full NAS model run (EP on RTK at 64
// simulated CPUs) — the unit of work behind Figures 9-15.
func BenchmarkNASModelRun(b *testing.B) {
	s := nas.SpecByName("EP")
	for i := 0; i < b.N; i++ {
		env := core.New(core.Config{Machine: machine.PHI(), Kind: core.RTK, Seed: 1, Threads: 64})
		if _, err := nas.RunModel(env, s, 64); err != nil {
			b.Fatal(err)
		}
	}
}
