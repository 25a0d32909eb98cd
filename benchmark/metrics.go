package main

import (
	"encoding/json"
	"strings"
)

// metricDef declares a metric once; BENCHMARK.json is generated from
// these tables (`komp-benchmark manifest`) and a self-test keeps the
// two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the numbers a user of the system sees, on every workload,
// on host time. Bound is the share of the parent's median by which the
// metric may get worse before a change counts as a regression.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"ops_per_s", "1/s", higher, 0.25},
	{"op_ms_p50", "ms", lower, 0.25},
	{"op_ms_tail", "ms", lower, 0.25},
	{"allocs_per_op", "count", lower, 0.10},
	{"cpu_ms_per_op", "ms", lower, 0.25},
	{"peak_rss_mb", "MB", lower, 0.20},
}

// perLayer are the numbers of single layers, from the traced run: spans
// the benchmark stamps around its own calls, probes of public functions
// no workload calls directly, and public counters read before and after.
var perLayer = []metricDef{
	// komp: the public wrapper.
	{Name: "komp.wrapper_ns", Unit: "ns", Better: lower},
	{Name: "komp.parallel_for_64k_us", Unit: "us", Better: lower},
	{Name: "komp.parallel_for_64k_allocs", Unit: "count", Better: lower},
	{Name: "komp.dynloop_ms_p50", Unit: "ms", Better: lower},
	// tenancy: admission, lease, rebalance.
	{Name: "tenancy.admit_to_body_us_p50", Unit: "us", Better: lower},
	{Name: "tenancy.admit_overhead_us", Unit: "us", Better: lower},
	{Name: "tenancy.submit_solo_us_p50", Unit: "us", Better: lower},
	{Name: "tenancy.parked_frac", Unit: "ratio", Better: lower},
	{Name: "tenancy.rejected", Unit: "count", Better: lower},
	{Name: "tenancy.rebalances_per_kop", Unit: "count", Better: lower},
	{Name: "tenancy.admitted", Unit: "count", Better: higher},
	{Name: "tenancy.fairness_ratio", Unit: "ratio", Better: higher},
	// omp: fork/join and worksharing.
	{Name: "omp.fork_us_p50", Unit: "us", Better: lower},
	{Name: "omp.fork_last_us_p50", Unit: "us", Better: lower},
	{Name: "omp.join_us_p50", Unit: "us", Better: lower},
	{Name: "omp.barrier_us_p50", Unit: "us", Better: lower},
	{Name: "omp.for_static_us_p50", Unit: "us", Better: lower},
	{Name: "omp.reduce_us_p50", Unit: "us", Better: lower},
	{Name: "omp.critical_us_p50", Unit: "us", Better: lower},
	{Name: "omp.single_us_p50", Unit: "us", Better: lower},
	{Name: "omp.for_dynamic_claim_ns", Unit: "ns", Better: lower},
	{Name: "omp.body_frac", Unit: "ratio", Better: higher},
	{Name: "omp.team_builds", Unit: "count", Better: lower},
	{Name: "omp.hot_team_hit_ratio", Unit: "ratio", Better: higher},
	// omp: tasking.
	{Name: "omp.task_spawn_ns_p50", Unit: "ns", Better: lower},
	{Name: "omp.taskwait_us_p50", Unit: "us", Better: lower},
	{Name: "omp.task_run_delay_us_p50", Unit: "us", Better: lower},
	{Name: "omp.tasks_remote_frac", Unit: "ratio", Better: higher},
	{Name: "omp.flood_tasks_per_s", Unit: "1/s", Better: higher},
	{Name: "omp.fib_ms_p50", Unit: "ms", Better: lower},
	{Name: "omp.taskloop_ms_p50", Unit: "ms", Better: lower},
	{Name: "omp.depend_wavefront_ms_p50", Unit: "ms", Better: lower},
	// exec: the real layer's thread context.
	{Name: "exec.futex_pingpong_ns", Unit: "ns", Better: lower},
	{Name: "exec.futex_wake_empty_ns", Unit: "ns", Better: lower},
	{Name: "exec.futex_wake_empty_contended_ns", Unit: "ns", Better: lower},
	{Name: "exec.futex_allocs_per_wait", Unit: "count", Better: lower},
	{Name: "exec.spawn_join_us", Unit: "us", Better: lower},
	// sim: the discrete-event core, on host time unless marked virtual.
	{Name: "sim.event_ns", Unit: "ns", Better: lower},
	{Name: "sim.storm_events_per_s.192", Unit: "1/s", Better: higher},
	{Name: "sim.storm_events_per_s.1024", Unit: "1/s", Better: higher},
	{Name: "sim.proc_handoff_ns", Unit: "ns", Better: lower},
	{Name: "sim.futex_roundtrip_host_ns", Unit: "ns", Better: lower},
	{Name: "sim.events_per_s", Unit: "1/s", Better: higher},
	{Name: "sim.host_ns_per_event", Unit: "ns", Better: lower},
	{Name: "sim.events_fired", Unit: "count", Better: lower},    // virtual, exact per pass
	{Name: "sim.events_spilled", Unit: "count", Better: lower},  // virtual, exact per pass
	{Name: "sim.virtual_ns_total", Unit: "ns", Better: lower},   // virtual, exact per pass
	{Name: "sim.virtual_digest48", Unit: "hash", Better: lower}, // 48-bit hash of every cell's virtual output
	{Name: "simlayer.run_ms_p50", Unit: "ms", Better: lower},    // host time of one Layer.Run
	{Name: "simlayer.barrier_round_host_us.16", Unit: "us", Better: lower},
	{Name: "core.env_build_ms.linux", Unit: "ms", Better: lower},
	{Name: "core.env_build_ms.rtk", Unit: "ms", Better: lower},
	{Name: "core.env_build_ms.pik", Unit: "ms", Better: lower},
	{Name: "core.env_build_ms.cck", Unit: "ms", Better: lower},
	// epcc, nas, virgil, device, bench.
	{Name: "epcc.suite_ms.array", Unit: "ms", Better: lower},
	{Name: "epcc.suite_ms.schedule", Unit: "ms", Better: lower},
	{Name: "epcc.suite_ms.synch", Unit: "ms", Better: lower},
	{Name: "epcc.suite_ms.task", Unit: "ms", Better: lower},
	{Name: "nas.model_run_ms_p50", Unit: "ms", Better: lower},
	{Name: "nas.ep_ms_p50", Unit: "ms", Better: lower},
	{Name: "nas.cg_ms_p50", Unit: "ms", Better: lower},
	{Name: "nas.mg_ms_p50", Unit: "ms", Better: lower},
	{Name: "nas.is_ms_p50", Unit: "ms", Better: lower},
	{Name: "nas.speedup_vs_serial.ep", Unit: "ratio", Better: higher},
	{Name: "nas.speedup_vs_serial.cg", Unit: "ratio", Better: higher},
	{Name: "virgil.submit_host_us", Unit: "us", Better: lower},
	{Name: "device.target_host_us", Unit: "us", Better: lower},
	{Name: "bench.fig7_quick_s", Unit: "s", Better: lower},
	{Name: "bench.fig9_quick_s", Unit: "s", Better: lower},
	{Name: "bench.fig13_quick_s", Unit: "s", Better: lower},
	// ompt, and the harness itself.
	{Name: "ompt.spine_overhead_frac", Unit: "ratio", Better: lower},
	{Name: "trace_overhead_frac.sync_regions", Unit: "ratio", Better: lower},
	{Name: "trace_overhead_frac.loop_kernels", Unit: "ratio", Better: lower},
	{Name: "trace_overhead_frac.task_graphs", Unit: "ratio", Better: lower},
	{Name: "trace_overhead_frac.tenant_submit", Unit: "ratio", Better: lower},
	{Name: "trace_overhead_frac.des_regen", Unit: "ratio", Better: lower},
}

func defOf(name string) (metricDef, bool) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}

func unitOf(name string) string {
	d, ok := defOf(name)
	if !ok {
		panic("benchmark: metric " + name + " is not declared in metrics.go")
	}
	return d.Unit
}

// runSeconds is how long one run measures: five segments of three seconds.
const (
	runSeconds  = 15
	runSegments = 5
)

// manifest renders BENCHMARK.json.
func manifest() string {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	var m struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []layerDef  `json:"per_layer"`
	}
	m.Command = []string{"bash", "benchmark/run.sh"}
	m.Paths = []string{"benchmark"}
	m.RunSeconds = runSeconds
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	m.EndToEnd = endToEnd
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layerDef{d.Name, d.Unit, d.Better})
	}
	var b strings.Builder
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	_ = enc.Encode(m) // a struct of strings and numbers always encodes
	return b.String()
}
