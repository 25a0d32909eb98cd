package omp

import (
	"testing"

	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/sim"
)

// runEQWorkload runs a parallel/barrier/task workload on an n-CPU
// 8XEON-costed SimLayer backed by the given event-queue algorithm and
// returns the elapsed virtual nanoseconds and the events fired.
func runEQWorkload(t *testing.T, n int, algo sim.EQAlgo) (int64, int64) {
	t.Helper()
	s := sim.NewEQ(n, 42, algo)
	layer := exec.NewSimLayer(s, xeon8Costs())
	rt := New(layer, Options{MaxThreads: n, Bind: true})
	elapsed, err := layer.Run(func(tc exec.TC) {
		rt.Parallel(tc, n, func(wk *Worker) {
			for round := 0; round < 3; round++ {
				wk.TC().Charge(int64(1000 * (wk.ThreadNum() + 1)))
				wk.Barrier()
			}
			if wk.ThreadNum() == 0 {
				for i := 0; i < 32; i++ {
					wk.Task(func(tw *Worker) {
						tw.TC().Charge(int64(500 + i*37))
					})
				}
			}
			wk.Barrier()
		})
		rt.Close(tc)
	})
	if err != nil {
		t.Fatalf("%d CPUs/%v: %v", n, algo, err)
	}
	return elapsed, s.EventsFired()
}

// TestRuntimeEQEquivalence: the event-queue algorithm must be invisible
// to the OpenMP runtime — a parallel/barrier/task workload takes the
// exact same virtual time and fires the same number of events on the
// wheel and on the heap reference, at 24 and 192 simulated CPUs.
func TestRuntimeEQEquivalence(t *testing.T) {
	for _, n := range []int{24, 192} {
		wheelNS, wheelEvents := runEQWorkload(t, n, sim.EQWheel)
		heapNS, heapEvents := runEQWorkload(t, n, sim.EQHeap)
		if wheelNS != heapNS || wheelEvents != heapEvents {
			t.Errorf("%d CPUs: wheel %d ns/%d events, heap %d ns/%d events (must be identical)",
				n, wheelNS, wheelEvents, heapNS, heapEvents)
		}
		if wheelNS <= 0 {
			t.Errorf("%d CPUs: elapsed = %d, want > 0", n, wheelNS)
		}
	}
}
