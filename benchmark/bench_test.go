package main

import (
	"io"
	"os"
	"regexp"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func testConfig(seg time.Duration) runConfig {
	return runConfig{seed: 3, threads: benchThreads(), segments: 1, segDur: seg, setups: 1, quick: true}
}

// Every declared name is well formed, declared once, and BENCHMARK.json
// is exactly what the tables generate.
func TestManifestMatchesTables(t *testing.T) {
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
				t.Errorf("metric %q unit %q: malformed", d.Name, d.Unit)
			}
			if seen[d.Name] {
				t.Errorf("metric %q declared twice", d.Name)
			}
			seen[d.Name] = true
			if d.Better != lower && d.Better != higher {
				t.Errorf("metric %q: better = %q", d.Name, d.Better)
			}
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || seen[w.name] {
			t.Errorf("workload %q: bad name or why", w.name)
		}
		seen[w.name] = true
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != manifest() {
		t.Error("BENCHMARK.json differs from the tables: regenerate it with `komp-benchmark manifest > BENCHMARK.json`")
	}
}

// The measured run emits every end-to-end metric, on a one-client and on
// a many-client workload, and no op fails.
func TestUntracedEmitsEndToEnd(t *testing.T) {
	for _, name := range []string{"sync_regions", "tenant_submit"} {
		w, _ := workloadByName(name)
		res := runUntraced(w, testConfig(200*time.Millisecond))
		if res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: %d of %d ops failed", name, res.Failed, res.Attempted)
		}
		for _, d := range endToEnd {
			m, ok := res.Metrics[d.Name]
			if !ok || m.Unit != d.Unit || !(m.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %+v", name, d.Name, m)
			}
		}
	}
}

// The traced run drives every workload for a segment untraced and two
// traced, verifies every op, and emits every per-layer metric.
func TestTracedEmitsPerLayer(t *testing.T) {
	dir := t.TempDir()
	res, err := runTraced(testConfig(200*time.Millisecond), "sync_regions", dir)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Attempted < len(workloads) {
		t.Errorf("%d of %d ops failed", res.Failed, res.Attempted)
	}
	for _, d := range perLayer {
		if m, ok := res.PerLayer[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("per-layer metric %s = %+v", d.Name, m)
		}
	}
	for _, w := range workloads {
		if res.Phases[w.name].Spans == 0 {
			t.Errorf("%s: traced phase recorded no spans", w.name)
		}
	}
	if st, err := os.Stat(res.ChromeTrace); err != nil || st.Size() == 0 {
		t.Errorf("Chrome trace %q: %v", res.ChromeTrace, err)
	}
}

// The seed alone decides the op sequence, and ops are really checked: a
// spoiled expected value (in the benchmark's own reference data, not in
// the program) makes the next op fail.
func TestSeedAndVerification(t *testing.T) {
	threads := benchThreads()
	for _, w := range workloads {
		a, b, c := w.setup(1, threads), w.setup(1, threads), w.setup(2, threads)
		if a.seqHash() != b.seqHash() {
			t.Errorf("%s: same seed, different op sequence", w.name)
		}
		if a.seqHash() == c.seqHash() {
			t.Errorf("%s: different seed, same op sequence", w.name)
		}
		b.close()
		c.close()
		if !a.op(0, 0, nil) {
			t.Errorf("%s: op failed verification", w.name)
		}
		a.corrupt()
		if a.op(0, 1, nil) {
			t.Errorf("%s: op passed against a corrupted expectation", w.name)
		}
		a.close()
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := percentile(xs, 0.99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and was not refused")
	}
	if v, err := percentile(append(xs, 999), 0.99); err != nil || v < 988 || v > 991 {
		t.Errorf("p99 of 1000 samples = %v, %v", v, err)
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 0.5}, {20, 0.5}, {100, 0.9}, {1000, 0.99}, {1 << 20, 0.99}} {
		if got := tailP(c.n); got != c.want {
			t.Errorf("tailP(%d) = %v, want %v", c.n, got, c.want)
		}
		if _, err := percentile(make([]float64, c.n), tailP(c.n)); err != nil && c.n >= 2*minBeyond {
			t.Errorf("tailP(%d) is refused by percentile: %v", c.n, err)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	for _, c := range []struct {
		worse, bound, spread float64
		noisy                bool
		want                 string
	}{
		{0.02, 0.10, 0.03, false, vOK},
		{0.12, 0.10, 0.03, false, vRegressed},
		{0.12, 0.10, 0.20, false, vUnresolved}, // inside the noise
		{0.02, 0.10, 0.20, false, vUnresolved}, // cannot be called unchanged
		{0.30, 0.10, 0.20, false, vRegressed},  // beyond the noise too
		{0.30, 0.10, 0.00, true, vUnresolved},  // the host changed speed under a run
		{0.02, 0.10, 0.00, true, vOK},
		{-0.30, 0.10, 0.00, false, vOK},
	} {
		if got := verdict(c.worse, c.bound, c.spread, c.noisy); got != c.want {
			t.Errorf("verdict(%v, %v, %v, %v) = %s, want %s", c.worse, c.bound, c.spread, c.noisy, got, c.want)
		}
	}
	if w := worsening(100, 80, higher); w != 0.2 {
		t.Errorf("ops_per_s 100 -> 80: worsening %v, want 0.2", w)
	}
	mk := func(ops float64) *record {
		m := metricSet{}
		for _, d := range endToEnd {
			m.set(d.Name, 1)
		}
		m.set("ops_per_s", ops)
		return &record{Provenance: provenance{Threads: 2}, Workloads: map[string]*workloadResult{
			"sync_regions": {Metrics: m},
		}}
	}
	if code := compareRecords(io.Discard, mk(100), mk(99)); code != 0 {
		t.Errorf("1%% slower: exit %d, want 0", code)
	}
	if code := compareRecords(io.Discard, mk(100), mk(70)); code != 1 {
		t.Errorf("30%% slower: exit %d, want 1", code)
	}
}
