package bench

import (
	"fmt"
	"io"
	"os"

	"github.com/interweaving/komp/internal/core"
	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/machine"
	"github.com/interweaving/komp/internal/omp"
	"github.com/interweaving/komp/internal/places"
)

// AblationNested measures real nested parallelism against the
// serialized-inner-region baseline every flat OpenMP runtime falls back
// to (OMP_MAX_ACTIVE_LEVELS=1), on the RTK kernel cost table across
// 8XEON scales.
//
// Two sections:
//
//  1. Inner fork/join overhead — the marginal virtual cost of one inner
//     parallel region forked from inside an active 8-wide outer team,
//     for both KOMP_NESTED_POOL lease policies (hold caches the leased
//     workers on the forking worker; return gives them back at every
//     inner join and re-leases next time).
//
//  2. A two-level BT-style plane sweep: 8 independent planes (the
//     outer parallelism the kernel exposes), each a worksharing loop
//     over its cells. With inner regions serialized, the run can use at
//     most 8 of the machine's cores no matter the team size — exactly
//     the limited-outer-parallelism shape that motivates nesting. With
//     OMP_MAX_ACTIVE_LEVELS=2 each plane forks an inner team leased
//     from the idle pool, bound close inside the plane-owner's socket
//     place, and the remaining cores light up.
//
// The two lease policies produce identical virtual times by design —
// leasing is host-side memory management (hold caches the inner team's
// workers and allocations across regions; return frees them) — so equal
// rows in section 1 are themselves the result: the policy is a memory
// footprint knob, not a latency knob.
//
// Virtual results are deterministic and go to stdout (bench-smoke
// byte-identity); the acceptance summary goes to stderr. The ablation
// fails if the nested sweep does not beat the serialized one at the top
// scale — the CI regression gate for the nesting machinery.
func AblationNested(w io.Writer, opt Options) error {
	m := machine.XEON8()
	scales := []int{24, 48, 96, 192}
	const baseRounds, moreRounds = 20, 40
	sweeps, cells := 4, 256
	if opt.Quick {
		scales = []int{24, 192} // keep the acceptance scale in quick runs
		sweeps, cells = 2, 128
	}
	const outer = 8 // outer team width of the fork/join section

	// region runs `rounds` back-to-back inner parallel regions on each
	// worker of an 8-wide outer team and returns the elapsed virtual ns.
	// Inner teams of n/8 make the leases exactly cover the pool.
	region := func(policy omp.NestedPoolPolicy, n, rounds int) (int64, error) {
		inner := n / outer
		env := core.New(core.Config{Machine: m, Kind: core.RTK, Seed: opt.seed(),
			Threads: n, OMP: omp.Options{
				MaxActiveLevels: 2, NumThreadsList: []int{outer, inner},
				NestedPool: policy, PlacesSpec: "sockets", ProcBind: places.BindSpread,
				ProcBindList: []places.Bind{places.BindSpread, places.BindClose}}})
		rt := env.OMPRuntime()
		return env.Layer.Run(func(tc exec.TC) {
			rt.Parallel(tc, outer, func(ow *omp.Worker) {
				for r := 0; r < rounds; r++ {
					ow.Parallel(inner, func(iw *omp.Worker) {
						iw.TC().Charge(100)
					})
				}
			})
			rt.Close(tc)
		})
	}
	// marginal is the per-inner-region slope in microseconds (8 inner
	// regions run concurrently per round; this is the per-worker cost).
	marginal := func(policy omp.NestedPoolPolicy, n int) (float64, error) {
		short, err := region(policy, n, baseRounds)
		if err != nil {
			return 0, err
		}
		long, err := region(policy, n, moreRounds)
		if err != nil {
			return 0, err
		}
		return float64(long-short) / float64(moreRounds-baseRounds) / 1000, nil
	}

	fmt.Fprintln(w, "Ablation: nested parallelism, RTK on 8XEON")
	fmt.Fprintf(w, "Inner fork/join from an %d-wide outer team (us/inner region, marginal)\n", outer)
	fmt.Fprintf(w, "%-14s", "lease policy")
	for _, n := range scales {
		fmt.Fprintf(w, " %9d", n)
	}
	fmt.Fprintln(w)
	for _, policy := range []omp.NestedPoolPolicy{omp.NestedPoolHold, omp.NestedPoolReturn} {
		fmt.Fprintf(w, "%-14s", policy.String())
		for _, n := range scales {
			us, err := marginal(policy, n)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %9.2f", us)
			opt.Recorder.Add(Record{
				Figure: "nested", Construct: "INNER-FORK", Env: "rtk", Cores: n,
				MedianNS: us * 1000, NestedPool: policy.String(),
				MaxActiveLevels: 2, OuterTeam: outer, InnerTeam: n / outer,
			})
		}
		fmt.Fprintln(w)
	}

	// The plane-sweep kernel. maxLevels=1 is the serialized baseline:
	// identical code, but every inner region collapses to a team of one.
	// One plane per socket: the outer team spreads over the 8 socket
	// places and each plane's inner team binds close inside its owner's
	// socket (the per-level OMP_PROC_BIND list at work), so at 192 cores
	// each inner team exactly fills a socket.
	const planes = 8
	kernel := func(n, maxLevels int) (int64, error) {
		inner := n / planes
		if inner < 1 {
			inner = 1
		}
		env := core.New(core.Config{Machine: m, Kind: core.RTK, Seed: opt.seed(),
			Threads: n, OMP: omp.Options{
				MaxActiveLevels: maxLevels, NumThreadsList: []int{planes, inner},
				PlacesSpec: "sockets", ProcBind: places.BindSpread,
				ProcBindList: []places.Bind{places.BindSpread, places.BindClose}}})
		rt := env.OMPRuntime()
		const workNS = 2000
		return env.Layer.Run(func(tc exec.TC) {
			for s := 0; s < sweeps; s++ {
				rt.Parallel(tc, planes, func(ow *omp.Worker) {
					ow.ForEach(0, planes, omp.ForOpt{}, func(p int) {
						ow.Parallel(inner, func(iw *omp.Worker) {
							iw.ForEach(0, cells, omp.ForOpt{}, func(c int) {
								iw.TC().Charge(workNS)
							})
						})
					})
				})
			}
			rt.Close(tc)
		})
	}

	fmt.Fprintf(w, "\nTwo-level plane sweep: %d planes x %d cells, %d sweeps (virtual ms)\n", planes, cells, sweeps)
	fmt.Fprintf(w, "%-14s", "inner regions")
	for _, n := range scales {
		fmt.Fprintf(w, " %9d", n)
	}
	fmt.Fprintln(w)
	var serialTop, nestedTop int64
	for _, maxLevels := range []int{1, 2} {
		label := "serialized"
		if maxLevels == 2 {
			label = "nested"
		}
		fmt.Fprintf(w, "%-14s", label)
		for _, n := range scales {
			elapsed, err := kernel(n, maxLevels)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %9.2f", float64(elapsed)/1e6)
			opt.Recorder.Add(Record{
				Figure: "nested", Construct: "PLANE-SWEEP", Env: "rtk", Cores: n,
				Seconds: float64(elapsed) / 1e9, MaxActiveLevels: maxLevels,
				OuterTeam: planes, InnerTeam: n / planes,
			})
			if n == scales[len(scales)-1] {
				if maxLevels == 1 {
					serialTop = elapsed
				} else {
					nestedTop = elapsed
				}
			}
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "\n(the sweep exposes only 8-way outer parallelism: serialized inner")
	fmt.Fprintln(w, " regions strand every core past the 8th, while nesting leases them")
	fmt.Fprintln(w, " to per-plane inner teams bound inside each plane-owner's socket)")

	top := scales[len(scales)-1]
	speedup := float64(serialTop) / float64(nestedTop)
	fmt.Fprintf(os.Stderr, "nested: plane sweep at %d cores: serialized %.2fms, nested %.2fms (%.2fx)\n",
		top, float64(serialTop)/1e6, float64(nestedTop)/1e6, speedup)
	if nestedTop >= serialTop {
		return fmt.Errorf("nested acceptance: nested sweep %.2fms did not beat serialized %.2fms at %d cores",
			float64(nestedTop)/1e6, float64(serialTop)/1e6, top)
	}
	return nil
}
