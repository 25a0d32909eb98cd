package main

import (
	"fmt"
	"io"
	"math"
	"os"
)

// verdicts of compare.
const (
	vOK         = "ok"
	vRegressed  = "regressed"
	vUnresolved = "unresolved"
)

// worsening is how much worse b is than a, as a share of a, for a metric
// whose better direction is given; negative when b is better.
func worsening(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	d := (b - a) / math.Abs(a)
	if better == higher {
		return -d
	}
	return d
}

// verdict judges one workload x metric pair. spread is the wider of the
// two runs' segment spreads (0 where the metric has none): a difference
// inside it cannot be told from noise, and when it is wider than the
// bound the pair cannot be called unchanged either. noisy is whether the
// host changed speed under either run: that can explain a regression, so
// it turns one into unresolved, but it does not spoil an ok.
func verdict(worse, bound, spread float64, noisy bool) string {
	switch {
	case worse > bound && worse > spread && !noisy:
		return vRegressed
	case worse > bound || spread > bound:
		return vUnresolved
	default:
		return vOK
	}
}

// compareMain prints, per workload and end-to-end metric, both values,
// the relative change with its base and a verdict. It returns the exit
// code: 1 when anything regressed, 2 on a usage or file error.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: komp-benchmark compare base.json new.json")
		return 2
	}
	var recs [2]*record
	for i, path := range args {
		rec, err := readRecord(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "komp-benchmark compare:", err)
			return 2
		}
		recs[i] = rec
	}
	return compareRecords(os.Stdout, recs[0], recs[1])
}

func compareRecords(w io.Writer, a, b *record) int {
	if a.Provenance.Threads != b.Provenance.Threads {
		fmt.Fprintf(w, "threads differ (%d vs %d): results compare only at equal threads\n", a.Provenance.Threads, b.Provenance.Threads)
		return 2
	}
	regressed := 0
	fmt.Fprintf(w, "%-14s %-14s %14s %14s %9s %6s  %s\n", "workload", "metric", "base", "new", "change", "bound", "verdict")
	for _, wl := range workloads {
		ra, rb := a.Workloads[wl.name], b.Workloads[wl.name]
		if ra == nil || rb == nil {
			continue
		}
		noisy := ra.Noisy || rb.Noisy
		for _, d := range endToEnd {
			ma, mb := ra.Metrics[d.Name], rb.Metrics[d.Name]
			sp := math.Max(ra.Spread[d.Name], rb.Spread[d.Name])
			v := verdict(worsening(ma.Value, mb.Value, d.Better), d.Bound, sp, noisy)
			if v == vRegressed {
				regressed++
			}
			fmt.Fprintf(w, "%-14s %-14s %14.6g %14.6g %+8.1f%% %5.0f%%  %s\n", wl.name, d.Name,
				ma.Value, mb.Value, 100*(mb.Value-ma.Value)/ma.Value, 100*d.Bound, v)
		}
		v := vOK
		if rb.FailedFrac > ra.FailedFrac {
			v = vRegressed
			regressed++
		}
		fmt.Fprintf(w, "%-14s %-14s %14.6g %14.6g %9s %6s  %s\n", wl.name, "failed_frac", ra.FailedFrac, rb.FailedFrac, "", "any", v)
	}
	if a.Traced != nil && b.Traced != nil {
		same := a.Traced.VirtualDigest == b.Traced.VirtualDigest
		for _, name := range []string{"sim.events_fired", "sim.events_spilled", "sim.virtual_ns_total"} {
			same = same && a.Traced.PerLayer[name].Value == b.Traced.PerLayer[name].Value
		}
		if a.Provenance.Seed == b.Provenance.Seed {
			fmt.Fprintf(w, "virtual results (digest %s vs %s, events, virtual ns) identical: %v\n",
				a.Traced.VirtualDigest, b.Traced.VirtualDigest, same)
		}
	}
	if regressed > 0 {
		fmt.Fprintf(w, "%d regressed\n", regressed)
		return 1
	}
	return 0
}
