package main

import (
	"fmt"
	"path/filepath"
	"strings"
)

// tracedSegments is how many segments each workload runs with spans on,
// after one untraced segment in the same process to compare against. A
// traced phase also ends when a span buffer is nearly full. The three
// segments of the five workloads together last the run's seconds.
const tracedSegments = 2

// chromeOps is how many ops of the chosen workload go into the Chrome
// trace file.
const chromeOps = 40

// runTraced is the traced invocation. The per-layer metrics come from
// every workload's spans and from the probes, so it runs all five
// workloads (briefly) whichever one was named; chromeFor picks the
// workload whose spans are also written as a Chrome trace.
func runTraced(cfg runConfig, chromeFor, outDir string) (*tracedResult, error) {
	res := &tracedResult{PerLayer: metricSet{}, Phases: map[string]tracedRun{}}
	out := res.PerLayer
	for _, w := range workloads {
		inst := w.setup(cfg.seed, cfg.threads)
		next := make([]uint32, inst.clients())
		rate := warmUp(w, inst, next)
		expect := int(rate * cfg.segDur.Seconds() * 3)
		untraced := runPhase(inst, 1, cfg.segDur, nil, next, expect, nil)

		tr := newTracer(len(inst.slots()))
		traced := runPhase(inst, tracedSegments, cfg.segDur, tr, next, expect, nil)
		for _, ph := range []*phase{untraced, traced} {
			n, failed := ph.ops()
			res.Attempted += n
			res.Failed += failed
		}
		inst.layers(tr, traced, out)
		u, t := median(untraced.lat), median(traced.lat)
		out.set("trace_overhead_frac."+w.name, t/u-1)
		spans := 0
		for i := range tr.bufs {
			spans += len(tr.bufs[i].recs)
		}
		n, _ := traced.ops()
		res.Phases[w.name] = tracedRun{u / 1e6, t / 1e6, n, spans, tr.selfTimes()}
		if w.name == chromeFor {
			res.ChromeTrace = filepath.Join(outDir, "trace-"+w.name+".json")
			if err := tr.writeChrome(res.ChromeTrace, inst.slots(), chromeOps); err != nil {
				return nil, err
			}
		}
		inst.close()
	}
	// Admission, queueing and lease: what a tenant's submission costs
	// before its body runs, beyond a plain fork of the same team.
	out.set("tenancy.admit_overhead_us", out["tenancy.admit_to_body_us_p50"].Value-out["omp.fork_us_p50"].Value)
	if err := runProbes(cfg.seed, cfg.threads, cfg.quick, out); err != nil {
		return nil, err
	}
	res.VirtualDigest = fmt.Sprintf("%012x", uint64(out["sim.virtual_digest48"].Value))
	var missing []string
	for _, d := range perLayer {
		if _, ok := out[d.Name]; !ok {
			missing = append(missing, d.Name)
		}
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("traced run did not produce: %s", strings.Join(missing, ", "))
	}
	return res, nil
}
