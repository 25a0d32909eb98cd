package komp

import (
	"runtime"
	"testing"

	"github.com/interweaving/komp/internal/core"
	"github.com/interweaving/komp/internal/epcc"
	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/machine"
)

// simCell builds one figure cell — a 64-thread RTK EPCC SYNCH run on
// the PHI, one outer and one inner repetition — and runs it. The build
// is core.New plus the runtime; the run is Layer.Run with EPCC inside.
type simCell struct {
	env *core.Env
	cfg epcc.Config
}

func buildSimCell() simCell {
	env := core.New(core.Config{Machine: machine.PHI(), Kind: core.RTK, Seed: 7, Threads: 64})
	env.OMPRuntime()
	cfg := epcc.Defaults(64)
	cfg.OuterReps, cfg.InnerReps = 1, 1
	return simCell{env, cfg}
}

func (c simCell) run() error {
	rt := c.env.OMPRuntime()
	var runErr error
	_, err := c.env.Layer.Run(func(tc exec.TC) {
		_, runErr = epcc.Run(tc, rt, "SYNCH", c.cfg)
		rt.Close(tc)
	})
	if err != nil {
		return err
	}
	return runErr
}

// cellObjectBudget bounds what building and running the cell allocates,
// in objects. Per-thread state comes in slabs — one per pool, team, Lib
// and simulator — so the cell makes 865 objects on go1.24 (1,502 when
// each of its 64 threads had a dozen objects of its own); one more
// object per thread exceeds the budget.
const cellObjectBudget = 920

// cellBuildBytes bounds what a second build of the cell allocates, in
// bytes: the simulator's 1 MiB timer wheel is taken from the previous
// cell's Run, not allocated and cleared per Sim.
const cellBuildBytes = 64 << 10

// TestCellAllocBudget catches per-thread or per-Sim allocation coming
// back into the cell path every figure regenerates.
func TestCellAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	if err := buildSimCell().run(); err != nil { // warm the free lists
		t.Fatal(err)
	}
	var before, built, ran runtime.MemStats
	runtime.ReadMemStats(&before)
	c := buildSimCell()
	runtime.ReadMemStats(&built)
	if err := c.run(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ran)
	objects := ran.Mallocs - before.Mallocs
	buildBytes := built.TotalAlloc - before.TotalAlloc
	t.Logf("cell: %d objects, %d bytes; build %d objects, %d bytes",
		objects, ran.TotalAlloc-before.TotalAlloc, built.Mallocs-before.Mallocs, buildBytes)
	if objects > cellObjectBudget {
		t.Errorf("building and running the cell allocates %d objects, budget %d", objects, cellObjectBudget)
	}
	if buildBytes >= cellBuildBytes {
		t.Errorf("a second build of the cell allocates %d bytes, want under %d", buildBytes, cellBuildBytes)
	}
}

// BenchmarkSimCell measures the host cost of one figure cell on the
// simulator, set-up included: build the environment and runtime, run
// EPCC SYNCH on 64 threads once. Run with -benchmem to see what a cell
// allocates.
func BenchmarkSimCell(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := buildSimCell().run(); err != nil {
			b.Fatal(err)
		}
	}
}
