// Command komp-benchmark is the repository's two-clock benchmark: five
// workloads over the public komp API (real goroutines, host time) and the
// simulated environments (the DES, host time per regenerated cell), with
// verified outputs, end-to-end metrics from an untraced run and per-layer
// metrics from a separate traced run. See README.md in this directory.
//
//	komp-benchmark -workload sync_regions -seed 12 -seconds 15 -trace 0
//	komp-benchmark -seed 12 -trace 1        # every workload, then the traced run
//	komp-benchmark compare a.json b.json
//	komp-benchmark manifest                 # BENCHMARK.json, from the tables in metrics.go
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"
)

// record is the file one invocation leaves behind and `compare` reads.
type record struct {
	Schema     int                        `json:"schema"`
	Claim      *string                    `json:"claim"` // a benchmark-defining change claims nothing
	Provenance provenance                 `json:"provenance"`
	Workloads  map[string]*workloadResult `json:"workloads,omitempty"`
	Traced     *tracedResult              `json:"traced,omitempty"`
}

// tracedResult is what the traced invocation yields.
type tracedResult struct {
	Attempted     int                  `json:"attempted"`
	Failed        int                  `json:"failed"`
	VirtualDigest string               `json:"virtual_digest"`
	PerLayer      metricSet            `json:"per_layer"`
	Phases        map[string]tracedRun `json:"phases"`
	ChromeTrace   string               `json:"chrome_trace,omitempty"`
}

// tracedRun describes one workload's traced phase.
type tracedRun struct {
	UntracedP50MS float64   `json:"untraced_op_ms_p50"`
	TracedP50MS   float64   `json:"traced_op_ms_p50"`
	TracedOps     int       `json:"traced_ops"`
	Spans         int       `json:"spans"`
	SelfTime      []selfRow `json:"self_time"`
}

// line is the last line of standard output: the contract with the driver.
type line struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		case "manifest":
			fmt.Print(manifest())
			return
		}
	}
	wl := flag.String("workload", "all", "workload to run, or all (each in its own child process)")
	seed := flag.Int64("seed", 12, "seed the inputs and op sequences are generated from")
	seconds := flag.Int("seconds", runSeconds, "seconds the measured phase lasts")
	traced := flag.Int("trace", 0, "1: the traced run, which prints the per-layer metrics")
	outDir := flag.String("out", ".bench_build/results", "directory for the result record and the Chrome trace")
	flag.Parse()
	if err := run(*wl, *seed, *seconds, *traced != 0, *outDir); err != nil {
		fmt.Fprintln(os.Stderr, "komp-benchmark:", err)
		os.Exit(1)
	}
}

func configFor(seed int64, seconds int, traced bool) runConfig {
	cfg := runConfig{
		seed: seed, threads: benchThreads(), segments: runSegments,
		segDur: time.Duration(seconds) * time.Second / runSegments, setups: 5,
	}
	if traced {
		cfg.segDur = time.Duration(seconds) * time.Second / time.Duration(len(workloads)*(1+tracedSegments))
	}
	return cfg
}

func run(name string, seed int64, seconds int, traced bool, outDir string) error {
	if seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	rec := &record{Schema: 1, Provenance: readProvenance(seed, seconds)}
	if name == "all" {
		return runAll(rec, seed, seconds, traced, outDir)
	}
	w, ok := workloadByName(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	cfg := configFor(seed, seconds, traced)
	var last line
	if traced {
		tr, err := runTraced(cfg, w.name, outDir)
		if err != nil {
			return err
		}
		rec.Traced = tr
		last = line{tr.Failed == 0, tr.Attempted, tr.Failed, tr.PerLayer}
		printMetrics(perLayer, tr.PerLayer, nil)
	} else {
		res := runUntraced(w, cfg)
		rec.Workloads = map[string]*workloadResult{w.name: res}
		last = line{res.Failed == 0, res.Attempted, res.Failed, res.Metrics}
		printWorkload(res)
	}
	if err := writeRecord(filepath.Join(outDir, recordName(name, traced)), rec); err != nil {
		return err
	}
	return printLine(last)
}

func recordName(workload string, traced bool) string {
	if traced {
		return "traced.json"
	}
	return workload + ".json"
}

// runAll runs every workload in a child process of its own, so that
// set-up time, peak memory and collector state are per workload, then
// the traced run if asked, and merges the records into outDir/BENCH.json.
func runAll(rec *record, seed int64, seconds int, traced bool, outDir string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	child := func(name string, traced bool) (*record, error) {
		trace := "0"
		if traced {
			trace = "1"
		}
		cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-out", outDir, "-trace", trace)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr // the child's last line is not ours
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("workload %s: %w", name, err)
		}
		return readRecord(filepath.Join(outDir, recordName(name, traced)))
	}
	rec.Workloads = map[string]*workloadResult{}
	last := line{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		r, err := child(w.name, false)
		if err != nil {
			return err
		}
		res := r.Workloads[w.name]
		rec.Workloads[w.name] = res
		last.Attempted += res.Attempted
		last.Failed += res.Failed
		for name, m := range res.Metrics {
			last.Metrics[w.name+"/"+name] = m
		}
	}
	if traced {
		r, err := child(workloads[0].name, true)
		if err != nil {
			return err
		}
		rec.Traced = r.Traced
		last.Attempted += r.Traced.Attempted
		last.Failed += r.Traced.Failed
		for name, m := range r.Traced.PerLayer {
			last.Metrics[name] = m
		}
	}
	last.Correct = last.Failed == 0
	path := filepath.Join(outDir, "BENCH.json")
	if err := writeRecord(path, rec); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "komp-benchmark: wrote", path)
	if err := printLine(last); err != nil {
		return err
	}
	if last.Failed > 0 {
		return fmt.Errorf("%d of %d ops failed verification", last.Failed, last.Attempted)
	}
	return nil
}

func printWorkload(res *workloadResult) {
	fmt.Printf("workload %s  seed %d  threads %d  clients %d  ops %d  failed %d  noisy %v  tail=p%.4g\n",
		res.Workload, res.Seed, res.Threads, res.Clients, res.Attempted, res.Failed, res.Noisy, res.TailP*100)
	printMetrics(endToEnd, res.Metrics, res.Spread)
}

func printMetrics(defs []metricDef, ms map[string]metric, spreads map[string]float64) {
	for _, d := range defs {
		m, ok := ms[d.Name]
		if !ok {
			continue
		}
		fmt.Printf("  %-36s %16.6g %-6s", d.Name, m.Value, m.Unit)
		if sp, ok := spreads[d.Name]; ok {
			fmt.Printf(" %s.spread %.3f", d.Name, sp)
		}
		fmt.Println()
	}
}

func printLine(l line) error {
	b, err := json.Marshal(l)
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(b))
	return err
}

func writeRecord(path string, rec *record) error {
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readRecord(path string) (*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec record
	if err := json.Unmarshal(b, &rec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rec, nil
}
