package omp

import (
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"github.com/interweaving/komp/internal/exec"
)

// icvSamples carries one accepted and one rejected value per icvs row.
// It seeds FuzzOptionsEnv and is itself checked against the table, so a
// new row cannot land without samples.
var icvSamples = map[string]struct{ good, bad string }{
	"OMP_NUM_THREADS":       {"8,4", "8,0"},
	"OMP_MAX_ACTIVE_LEVELS": {"2", "0"},
	"KOMP_NESTED_POOL":      {"return", "lend"},
	"OMP_SCHEDULE":          {"dynamic,4", "dynamic,x"},
	"KOMP_TASK_CUTOFF":      {"16", "-1"},
	"KOMP_TASK_STEAL_TRIES": {"4", "-3"},
	"OMP_PLACES":            {"{0:4},{4:4}", "{0:"},
	"OMP_PROC_BIND":         {"spread,close", "sideways"},
	"OMP_CANCELLATION":      {"true", "maybe"},
	"KOMP_RESILIENT":        {"1", "maybe"},
	"OMP_DEFAULT_DEVICE":    {"-1", "gpu"},
	"KOMP_DEVICE":           {"16,64", "16"},
	"KOMP_REGION_DEADLINE":  {"50ms", "-1s"},
}

// TestICVSamples: every row accepts its good sample, rejects its bad one
// with an error naming the variable, and a rejected value writes nothing.
func TestICVSamples(t *testing.T) {
	if len(icvSamples) != len(icvs) {
		t.Errorf("%d samples for %d table rows", len(icvSamples), len(icvs))
	}
	for _, icv := range icvs {
		s, ok := icvSamples[icv.name]
		if !ok {
			t.Errorf("%s: no sample", icv.name)
			continue
		}
		var o Options
		if err := o.Env(envOf(map[string]string{icv.name: s.good})); err != nil {
			t.Errorf("%s=%q: %v", icv.name, s.good, err)
		}
		if reflect.DeepEqual(o, Options{}) {
			t.Errorf("%s=%q was accepted but changed nothing", icv.name, s.good)
		}
		o = Options{}
		err := o.Env(envOf(map[string]string{icv.name: s.bad}))
		if err == nil || !strings.Contains(err.Error(), icv.name) {
			t.Errorf("%s=%q: err = %v, want one naming the variable", icv.name, s.bad, err)
		}
		if !reflect.DeepEqual(o, Options{}) {
			t.Errorf("%s=%q was rejected but wrote %+v", icv.name, s.bad, o)
		}
	}
}

// TestEnvDeadlineWithoutCancellationWarns: KOMP_REGION_DEADLINE alone is
// inert (armDeadline requires a cancellable team), so Env must say so
// instead of accepting it silently.
func TestEnvDeadlineWithoutCancellationWarns(t *testing.T) {
	var o Options
	if err := o.Env(envOf(map[string]string{"KOMP_REGION_DEADLINE": "50ms"})); err != nil {
		t.Fatal(err)
	}
	if len(o.Warnings) != 1 || !strings.Contains(o.Warnings[0], "KOMP_REGION_DEADLINE") ||
		!strings.Contains(o.Warnings[0], "OMP_CANCELLATION") {
		t.Errorf("warnings = %q, want one naming both variables", o.Warnings)
	}
	o = Options{}
	env := map[string]string{"KOMP_REGION_DEADLINE": "50ms", "OMP_CANCELLATION": "true"}
	if err := o.Env(envOf(env)); err != nil {
		t.Fatal(err)
	}
	if len(o.Warnings) != 0 || o.RegionDeadlineNS != 50_000_000 || !o.Cancellation {
		t.Errorf("deadline with cancellation: warnings=%q opts=%+v", o.Warnings, o)
	}
}

// TestICVsDocumented ties the table to the README feature matrix in both
// directions: every environment variable the code reads is documented,
// and every OMP_*/KOMP_* name the README mentions is one the code reads
// (the check that would have caught a documented-but-unparsed variable).
func TestICVsDocumented(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	// KOMP_TENANCY_QUEUE is parsed by internal/tenancy, which imports
	// this package.
	known := map[string]bool{"KOMP_TENANCY_QUEUE": true}
	for _, icv := range icvs {
		known[icv.name] = true
	}
	documented := map[string]bool{}
	for _, name := range regexp.MustCompile(`\bK?OMP_[A-Z_]+\b`).FindAllString(string(readme), -1) {
		documented[name] = true
		if !known[name] {
			t.Errorf("README.md mentions %s, which nothing parses", name)
		}
	}
	for name := range known {
		if !documented[name] {
			t.Errorf("%s is parsed but README.md does not mention it", name)
		}
	}
}

// FuzzOptionsEnv drives one table row, chosen by index, with an
// arbitrary value. Env must never panic; an accepted value must leave
// Options that omp.New accepts, and a rejected one must leave them
// untouched.
func FuzzOptionsEnv(f *testing.F) {
	for i, icv := range icvs {
		s := icvSamples[icv.name]
		f.Add(uint(i), s.good)
		f.Add(uint(i), s.bad)
	}
	f.Fuzz(func(t *testing.T, row uint, value string) {
		name := icvs[row%uint(len(icvs))].name
		var o Options
		err := o.Env(envOf(map[string]string{name: value}))
		if err != nil && !reflect.DeepEqual(o, Options{}) {
			t.Fatalf("%s=%q rejected (%v) but wrote %+v", name, value, err, o)
		}
		if o.PlacesSpec != "" {
			// A well-formed OMP_PLACES may still name CPUs the layer does
			// not have, which New reports by panicking (documented on
			// Options.PlacesSpec); that is the topology's call, not Env's.
			return
		}
		New(exec.NewRealLayer(2), o)
	})
}
