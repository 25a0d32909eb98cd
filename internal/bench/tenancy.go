package bench

import (
	"fmt"
	"io"
	"os"
	"sort"

	"github.com/interweaving/komp/internal/core"
	"github.com/interweaving/komp/internal/exec"
	"github.com/interweaving/komp/internal/machine"
	"github.com/interweaving/komp/internal/omp"
	"github.com/interweaving/komp/internal/places"
	"github.com/interweaving/komp/internal/pthread"
	"github.com/interweaving/komp/internal/tenancy"
)

// tenancyLoad parameterizes one open-loop run of the multi-tenant
// service: every tenant's driver submits a region each periodNS of
// virtual time (arrivals are scheduled, not paced by completions — the
// open-loop discipline), and the per-region latency is measured from the
// scheduled arrival to the join, so queueing delay is part of the
// number, exactly as a service-level objective would count it.
type tenancyLoad struct {
	tenants     int
	width       int // team size per region (1 master + width-1 leases)
	workers     int // shared pool size
	rounds      int // regions per tenant
	periodNS    int64
	sharded     bool // deal tenants onto disjoint socket shards
	maxInflight int  // 0 = admission control off
	queueDepth  int
	policy      tenancy.Policy
}

type tenancyResult struct {
	lat      []int64 // admitted-region latencies (all tenants), virtual ns
	stats    tenancy.Stats
	makespan int64 // first scheduled arrival (t=0) to last driver exit
}

// pctNS is the nearest-rank percentile of a latency sample.
func pctNS(lat []int64, p float64) int64 {
	if len(lat) == 0 {
		return 0
	}
	s := append([]int64(nil), lat...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(float64(p/100*float64(len(s))) + 0.9999)
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// tenancyOpenLoop drives one service configuration on the 192-core
// 8XEON simulator under RTK kernel costs. Every driver is spawned on
// the launch socket (CPU i, all socket 0) — where processes land before
// anyone thinks about placement — so the only difference between the
// interleaved and sharded modes is where the service puts the teams.
func tenancyOpenLoop(opt Options, L tenancyLoad) (tenancyResult, error) {
	m := machine.XEON8()
	env := core.New(core.Config{Machine: m, Kind: core.RTK, Seed: opt.seed(), Threads: m.NumCPUs()})
	const regionItems, itemNS = 96, 4000

	cfg := tenancy.Config{
		Workers:     L.workers,
		MaxInflight: L.maxInflight,
		QueueDepth:  L.queueDepth,
		Policy:      L.policy,
		Base:        omp.Options{PthreadImpl: pthread.Custom},
	}
	sockets, err := places.Parse("sockets", places.ForMachine(m))
	if err != nil {
		return tenancyResult{}, err
	}
	if L.sharded {
		cfg.Shards = L.tenants
		cfg.Places = sockets
	} else {
		// Interleaved baseline: every tenant binds close over the full
		// per-core place list from wherever its master sits, the way a
		// placement-oblivious service packs teams — they overlap on the
		// same low CPUs and serialize there.
		cores, err := places.Parse("", places.ForMachine(m))
		if err != nil {
			return tenancyResult{}, err
		}
		cfg.Places = cores
		cfg.Base.Bind = true
		cfg.Base.ProcBind = places.BindClose
	}

	var res tenancyResult
	lats := make([][]int64, L.tenants)
	done := make([]int64, L.tenants)
	if _, err := env.Layer.Run(func(tc exec.TC) {
		svc := tenancy.New(tc, env.Layer, cfg)
		tens := make([]*tenancy.Tenant, L.tenants)
		for i := range tens {
			tens[i] = svc.Tenant(L.width)
		}
		var hs []exec.Handle
		for i := 0; i < L.tenants; i++ {
			i := i
			phase := int64(i) * L.periodNS / int64(L.tenants)
			hs = append(hs, tc.Spawn(fmt.Sprintf("tenant%d", i), i, func(dtc exec.TC) {
				for k := 0; k < L.rounds; k++ {
					due := phase + int64(k)*L.periodNS
					if now := dtc.Now(); now < due {
						dtc.Sleep(due - now)
					}
					err := tens[i].Parallel(dtc, L.width, func(w *omp.Worker) {
						w.ForEach(0, regionItems, omp.ForOpt{}, func(int) {
							w.TC().Charge(itemNS)
						})
					})
					if err == nil {
						lats[i] = append(lats[i], dtc.Now()-due)
					}
				}
				done[i] = dtc.Now()
			}))
		}
		for _, h := range hs {
			h.Join(tc)
		}
		res.stats = svc.Stats()
		svc.Shutdown(tc)
	}); err != nil {
		return tenancyResult{}, err
	}
	for i := range lats {
		res.lat = append(res.lat, lats[i]...)
		if done[i] > res.makespan {
			res.makespan = done[i]
		}
	}
	return res, nil
}

// AblationTenancy is the multi-tenant service study (`kompbench
// -ablation tenancy`): N independent tenants submitting parallel
// regions open-loop into one shared worker pool on the 192-core 8XEON
// under RTK kernel costs.
//
// Three sections:
//
//  1. Placement: interleaved (every team packed close from its master
//     over the whole machine — overlapping CPUs, serialized by the
//     simulator's non-preemptive per-CPU timelines) vs sharded (each
//     tenant confined to its own socket shard). Open-loop p50/p99
//     region latency and throughput; the acceptance gate requires the
//     sharded p99 to beat the interleaved p99 at 192 cores.
//
//  2. Admission control: a KOMP_TENANCY_QUEUE sweep under ~3x
//     overload — a roomy parking queue (latency absorbs the excess), a
//     shallow queue (parks then sheds), and pure reject (load
//     shedding). The shallow and reject rows must shed (rejected > 0),
//     the roomy row must not.
//
//  3. Work-conserving rebalance: a busy 24-wide tenant shares the pool
//     with a transient 16-wide tenant that departs still holding its
//     hot-team leases. The starved latch + rebalance drain hands them
//     back; the busy tenant's late-phase region time must come within
//     5% of its single-tenant baseline.
//
// Everything runs on the simulator: stdout is a pure function of the
// seed (bench-smoke byte-identity); the acceptance summary goes to
// stderr and a violated gate is the error return CI fails on.
func AblationTenancy(w io.Writer, opt Options) error {
	tenants := 8
	rounds := 30
	if opt.Quick {
		rounds = 12 // keep the tenant count and the 192-core machine: the acceptance scale
	}
	const width = 16

	// --- Section 1: placement ---
	base := tenancyLoad{
		tenants: tenants, width: width, rounds: rounds,
		workers:  tenants * (width - 1), // exactly covers every hot team
		periodNS: 120_000,
	}
	fmt.Fprintf(w, "Ablation: multi-tenant service, RTK on 8XEON (192 cores, %d tenants, open-loop)\n", tenants)
	fmt.Fprintf(w, "Placement: %d-wide regions every %dus per tenant (latency from scheduled arrival)\n",
		width, base.periodNS/1000)
	fmt.Fprintf(w, "%-14s %9s %11s %10s %10s\n", "placement", "admitted", "regions/s", "p50 us", "p99 us")
	p99 := map[bool]int64{}
	for _, sharded := range []bool{false, true} {
		L := base
		L.sharded = sharded
		r, err := tenancyOpenLoop(opt, L)
		if err != nil {
			return err
		}
		label := "interleaved"
		if sharded {
			label = "sharded"
		}
		p50 := pctNS(r.lat, 50)
		p99[sharded] = pctNS(r.lat, 99)
		thru := float64(r.stats.Admitted) / (float64(r.makespan) / 1e9)
		fmt.Fprintf(w, "%-14s %9d %11.0f %10.1f %10.1f\n",
			label, r.stats.Admitted, thru, float64(p50)/1000, float64(p99[sharded])/1000)
		opt.Recorder.Add(Record{
			Figure: "tenancy", Construct: "OPEN-LOOP", Env: core.RTK.String(),
			Cores: 192, Tenants: tenants, Bind: label,
			P50NS: p50, P99NS: p99[sharded], Seconds: float64(r.makespan) / 1e9,
		})
	}

	// --- Section 2: admission control under overload ---
	over := base
	over.sharded = true
	over.periodNS = 40_000 // ~3x the admitted service capacity
	over.maxInflight = 2
	queues := []string{"16,park", "2,park", "2,reject"}
	fmt.Fprintf(w, "\nAdmission control: MaxInflight=%d, ~3x overload, KOMP_TENANCY_QUEUE sweep (sharded)\n", over.maxInflight)
	fmt.Fprintf(w, "%-10s %9s %8s %9s %10s %10s\n", "queue", "admitted", "parked", "rejected", "p50 us", "p99 us")
	shed := map[string]int64{}
	for _, q := range queues {
		depth, pol, err := tenancy.ParseQueue(q)
		if err != nil {
			return err
		}
		L := over
		L.queueDepth, L.policy = depth, pol
		r, err := tenancyOpenLoop(opt, L)
		if err != nil {
			return err
		}
		shed[q] = r.stats.Rejected
		p50, p99 := pctNS(r.lat, 50), pctNS(r.lat, 99)
		fmt.Fprintf(w, "%-10s %9d %8d %9d %10.1f %10.1f\n",
			q, r.stats.Admitted, r.stats.Parked, r.stats.Rejected,
			float64(p50)/1000, float64(p99)/1000)
		opt.Recorder.Add(Record{
			Figure: "tenancy", Construct: "ADMISSION-" + pol.String(), Env: core.RTK.String(),
			Cores: 192, Tenants: tenants, QDepth: depth,
			P50NS: p50, P99NS: p99, Rejected: r.stats.Rejected,
		})
	}

	// --- Section 3: work-conserving rebalance ---
	// A 24-wide busy tenant (23 leases) and a transient 16-wide tenant
	// (15 leases) share a 26-worker pool: while both run, forks starve
	// and shrink; when the transient departs still holding its hot-team
	// leases, only the rebalance drain gets them back to the busy one.
	busyRounds, transientRounds := 24, 6
	if opt.Quick {
		busyRounds, transientRounds = 16, 4
	}
	lateN := busyRounds / 4
	const busyWidth, transientWidth, poolWorkers = 24, 16, 26
	const rbItems, rbItemNS = 96, 4000

	// run measures the busy tenant's per-region times, alone or sharing.
	run := func(withTransient bool) (overlap, late float64, rebalances int64, err error) {
		m := machine.XEON8()
		env := core.New(core.Config{Machine: m, Kind: core.RTK, Seed: opt.seed(), Threads: m.NumCPUs()})
		sockets, err := places.Parse("sockets", places.ForMachine(m))
		if err != nil {
			return 0, 0, 0, err
		}
		cfg := tenancy.Config{
			Workers: poolWorkers, Shards: 2, Places: sockets,
			Base: omp.Options{PthreadImpl: pthread.Custom},
		}
		regionNS := make([]int64, 0, busyRounds)
		var stats tenancy.Stats
		if _, err := env.Layer.Run(func(tc exec.TC) {
			svc := tenancy.New(tc, env.Layer, cfg)
			busy := svc.Tenant(busyWidth)
			transient := svc.Tenant(transientWidth)
			body := func(w *omp.Worker) {
				w.ForEach(0, rbItems, omp.ForOpt{}, func(int) {
					w.TC().Charge(rbItemNS)
				})
			}
			var th exec.Handle
			if withTransient {
				// The transient forks first (the busy driver waits out its
				// burst's head start), grabs its leases, runs its burst, and
				// goes idle still caching its hot team.
				th = tc.Spawn("transient", 1, func(dtc exec.TC) {
					for k := 0; k < transientRounds; k++ {
						if err := transient.Parallel(dtc, transientWidth, body); err != nil {
							return
						}
					}
				})
			}
			bh := tc.Spawn("busy", 0, func(dtc exec.TC) {
				dtc.Sleep(50_000)
				for k := 0; k < busyRounds; k++ {
					t0 := dtc.Now()
					if err := busy.Parallel(dtc, busyWidth, body); err != nil {
						return
					}
					regionNS = append(regionNS, dtc.Now()-t0)
				}
			})
			bh.Join(tc)
			if th != nil {
				th.Join(tc)
			}
			stats = svc.Stats()
			svc.Shutdown(tc)
		}); err != nil {
			return 0, 0, 0, err
		}
		mean := func(s []int64) float64 {
			var sum int64
			for _, v := range s {
				sum += v
			}
			return float64(sum) / float64(len(s))
		}
		return mean(regionNS[:lateN]), mean(regionNS[len(regionNS)-lateN:]), stats.Rebalances, nil
	}

	_, solo, _, err := run(false)
	if err != nil {
		return err
	}
	overlap, late, rebalances, err := run(true)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nWork-conserving rebalance: %d-wide busy + transient %d-wide tenant, pool of %d\n",
		busyWidth, transientWidth, poolWorkers)
	fmt.Fprintf(w, "%-44s %10.1f\n", "single-tenant baseline, late (us/region)", solo/1000)
	fmt.Fprintf(w, "%-44s %10.1f\n", "shared, overlap phase (us/region)", overlap/1000)
	fmt.Fprintf(w, "%-44s %10.1f\n", "shared, after transient departs (us/region)", late/1000)
	fmt.Fprintf(w, "%-44s %10d\n", "rebalances", rebalances)
	fmt.Fprintln(w, "\n(the transient departs holding its hot-team leases; the busy tenant's")
	fmt.Fprintln(w, " next fork starves, latches the pool, and the completion-path rebalance")
	fmt.Fprintln(w, " drains the idle tenant's cache — parked capacity flows back to work)")
	opt.Recorder.Add(Record{Figure: "tenancy", Construct: "REBALANCE-SOLO", Env: core.RTK.String(),
		Cores: 192, Tenants: 1, MedianNS: solo})
	opt.Recorder.Add(Record{Figure: "tenancy", Construct: "REBALANCE-SHARED", Env: core.RTK.String(),
		Cores: 192, Tenants: 2, MedianNS: late})

	// --- Acceptance gates (stderr + error return: the CI hooks) ---
	fmt.Fprintf(os.Stderr, "tenancy: p99 interleaved %.1fus vs sharded %.1fus; shed %v; rebalance late %.1fus vs solo %.1fus (%d rebalances)\n",
		float64(p99[false])/1000, float64(p99[true])/1000,
		[]int64{shed["16,park"], shed["2,park"], shed["2,reject"]},
		late/1000, solo/1000, rebalances)
	if p99[true] >= p99[false] {
		return fmt.Errorf("tenancy acceptance: sharded p99 %.1fus did not beat interleaved p99 %.1fus at 192 cores",
			float64(p99[true])/1000, float64(p99[false])/1000)
	}
	if shed["2,park"] == 0 || shed["2,reject"] == 0 {
		return fmt.Errorf("tenancy acceptance: saturated shallow-queue rows shed nothing (rejected %d park, %d reject)",
			shed["2,park"], shed["2,reject"])
	}
	if shed["16,park"] != 0 {
		return fmt.Errorf("tenancy acceptance: roomy parking queue shed %d submissions, want 0", shed["16,park"])
	}
	if rebalances == 0 {
		return fmt.Errorf("tenancy acceptance: transient departure triggered no rebalance")
	}
	if late > solo*1.05 {
		return fmt.Errorf("tenancy acceptance: post-rebalance region time %.1fus is more than 5%% over the single-tenant baseline %.1fus",
			late/1000, solo/1000)
	}
	return nil
}
