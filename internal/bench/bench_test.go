package bench

import (
	"fmt"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	figs := Figures()
	if len(figs) != 10 {
		t.Fatalf("figures = %d, want 10 (fig6..fig15)", len(figs))
	}
	for _, id := range []string{"fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15"} {
		if _, ok := ByID(id); !ok {
			t.Fatalf("missing %s", id)
		}
	}
	if _, ok := ByID("fig99"); ok {
		t.Fatal("bogus id resolved")
	}
}

func TestFig6Table(t *testing.T) {
	var b strings.Builder
	if err := Fig6(&b, Options{}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"RTK", "PIK", "CCK", "13,250", "6,550", "Automatic parallelization"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig6 missing %q", want)
		}
	}
}

func TestFig9Quick(t *testing.T) {
	var b strings.Builder
	err := Fig9(&b, Options{Quick: true, Benchmarks: []string{"BT", "EP"}})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "BT-B") || !strings.Contains(out, "geomean") {
		t.Fatalf("fig9 output malformed:\n%s", out)
	}
}

func TestFig11QuickElidesIS(t *testing.T) {
	var b strings.Builder
	err := Fig11(&b, Options{Quick: true, Benchmarks: []string{"MG", "IS"}})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if strings.Contains(out, "IS-C") {
		t.Fatal("fig11 must elide IS")
	}
	if !strings.Contains(out, "MG-C") || !strings.Contains(out, "nk-automp") {
		t.Fatalf("fig11 malformed:\n%s", out)
	}
}

func TestFig14Quick(t *testing.T) {
	var b strings.Builder
	err := Fig14(&b, Options{Quick: true, Benchmarks: []string{"CG"}})
	if err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "rtk") || !strings.Contains(out, "pik") {
		t.Fatalf("fig14 must show both kernel paths:\n%s", out)
	}
}

// TestNASSpecsByName: -bench names match trimmed and case-insensitively,
// and an unknown name fails the figure instead of rendering an empty
// table.
func TestNASSpecsByName(t *testing.T) {
	var b strings.Builder
	err := Fig9(&b, Options{Quick: true, Benchmarks: []string{"BOGUS"}})
	if err == nil || !strings.Contains(err.Error(), "BOGUS") || !strings.Contains(err.Error(), "EP") {
		t.Fatalf("unknown benchmark: err = %v, want one naming BOGUS and the valid names", err)
	}
	b.Reset()
	if err := Fig9(&b, Options{Quick: true, Benchmarks: []string{" ep"}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "\nEP-C ") {
		t.Fatalf("fig9 -bench ep must render the EP-C row:\n%s", b.String())
	}
}

// TestCCKRelFiguresQuick runs Figs. 12 and 15 at -quick: IS is elided
// from rows and records, every (benchmark, environment, scale) cell is
// recorded in order — per benchmark the Linux OpenMP baseline, then
// Linux AutoMP, then NK AutoMP — both geomeans print, and the IS note
// closes the figure.
func TestCCKRelFiguresQuick(t *testing.T) {
	envs := []string{"linux-omp", "linux-automp", "nk-automp"}
	for _, tc := range []struct {
		id     string
		scales []int
	}{{"fig12", []int{1, 8, 64}}, {"fig15", []int{1, 24, 192}}} {
		f, _ := ByID(tc.id)
		rec := &Recorder{}
		var b strings.Builder
		if err := f.Run(&b, Options{Quick: true, Recorder: rec}); err != nil {
			t.Fatalf("%s: %v", tc.id, err)
		}
		out := b.String()
		if strings.Contains(out, "IS-C") {
			t.Errorf("%s: IS row not elided:\n%s", tc.id, out)
		}
		var want []string
		for _, s := range []string{"BT-B", "FT-B", "EP-C", "MG-C", "SP-C", "LU-C", "CG-C"} {
			for _, env := range envs {
				for _, n := range tc.scales {
					want = append(want, fmt.Sprintf("%s %s %d", s, env, n))
				}
			}
		}
		var got []string
		for _, r := range rec.Records {
			if r.Figure != tc.id || r.Seconds <= 0 {
				t.Errorf("%s: bad record %+v", tc.id, r)
			}
			got = append(got, fmt.Sprintf("%s %s %d", r.Construct, r.Env, r.Cores))
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s records:\n%s\nwant:\n%s", tc.id, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
		for _, env := range envs[1:] {
			if !strings.Contains(out, "geomean("+env+") across benchmarks and scales: ") {
				t.Errorf("%s: missing geomean(%s)", tc.id, env)
			}
		}
		lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
		if last := lines[len(lines)-1]; last != isNote {
			t.Errorf("%s: last line %q, want the IS note", tc.id, last)
		}
	}
}

func TestFig7QuickRuns(t *testing.T) {
	var b strings.Builder
	if err := Fig7(&b, Options{Quick: true}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"ARRAY", "SCHEDULE", "SYNCH", "TASK", "BARRIER", "DYNAMIC_1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig7 missing %q", want)
		}
	}
}

func TestDeterministicFigure(t *testing.T) {
	render := func() string {
		var b strings.Builder
		if err := Fig10(&b, Options{Quick: true, Benchmarks: []string{"FT"}}); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if render() != render() {
		t.Fatal("figure output must be deterministic")
	}
}

// Headline regression guards: the paper's geomean claims must keep
// holding after any retuning. Full-fidelity NAS sweeps (a few seconds).
func TestHeadlineGeomeans(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	check := func(id string, want map[string][2]float64) {
		var b strings.Builder
		f, _ := ByID(id)
		if err := f.Run(&b, Options{Seed: 42}); err != nil {
			t.Fatal(err)
		}
		for env, bounds := range want {
			needle := "geomean(" + env + ") across benchmarks and scales: "
			out := b.String()
			i := strings.Index(out, needle)
			if i < 0 {
				t.Fatalf("%s: missing %q", id, needle)
			}
			var v float64
			if _, err := fmt.Sscanf(out[i+len(needle):], "%f", &v); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if v < bounds[0] || v > bounds[1] {
				t.Errorf("%s %s geomean = %.2f, want [%.2f, %.2f] (paper shape)",
					id, env, v, bounds[0], bounds[1])
			}
		}
	}
	// Paper: RTK ~22% on PHI, PIK ~10%; both ~20% on 8XEON.
	check("fig9", map[string][2]float64{"rtk": {1.15, 1.32}})
	check("fig10", map[string][2]float64{"pik": {1.05, 1.22}})
	check("fig14", map[string][2]float64{"rtk": {1.12, 1.32}, "pik": {1.10, 1.30}})
}
