package core

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/interweaving/komp/internal/cck"
	"github.com/interweaving/komp/internal/machine"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestEnvironmentMechanismsPinned pins what each environment is made of
// on both machines, below and above the 24-core first-touch threshold,
// with and without ForceImmediate: the layer's primitive cost table, the
// paging and placement outcome, boot-image statics and the boot image's
// size, the kernel's lazy-FPU and IST-trampoline switches, the pthread
// variant the OpenMP runtime is built over, and the memory multiplier of
// a fixed profile. Regenerate after an intentional model change with
// `go test ./internal/core/ -run MechanismsPinned -update`.
func TestEnvironmentMechanismsPinned(t *testing.T) {
	const golden = "testdata/mechanisms.golden"
	prof := cck.MemProfile{
		WorkingSetBytes:  256 << 20,
		TLBPressure:      0.4,
		StaticLayoutFrac: 0.05,
		KernelFrac:       0.03,
		MemBoundFrac:     0.6,
		SatThreads:       32,
	}
	var b strings.Builder
	for _, m := range []*machine.Machine{machine.PHI(), machine.XEON8()} {
		for _, kind := range []Kind{Linux, RTK, PIK, CCK, LinuxAutoMP} {
			for _, threads := range []int{8, 192} {
				for _, imm := range []bool{false, true} {
					e := New(Config{Machine: m, Kind: kind, Seed: 1, Threads: threads,
						ForceImmediate: imm, BootImageBytes: 64 << 20})
					fmt.Fprintf(&b, "%s %s threads=%d immediate=%v inKernel=%v\n",
						m.Name, kind, threads, imm, kind.row().inKernel)
					fmt.Fprintf(&b, "  costs %+v\n", *e.Layer.Costs())
					fmt.Fprintf(&b, "  page=%d firstTouch=%v bootStatics=%v multiplier=%v\n",
						e.PageSize, e.FirstTouch, e.BootImageStatics, e.Multiplier(prof, 0.25))
					if k := e.Kernel; k != nil {
						var boot int64
						if r := k.BootImage(); r != nil {
							boot = r.Bytes
						}
						fmt.Fprintf(&b, "  lazyFPU=%v ist=%v bootImage=%d\n", k.LazyFPU, k.ISTTrampoline, boot)
					}
					if kind != CCK {
						fmt.Fprintf(&b, "  pthread=%v\n", e.OMPRuntime().Lib().Impl)
					}
				}
			}
		}
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("golden file: %v (run `go test ./internal/core/ -run MechanismsPinned -update`)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range gl {
			if i >= len(wl) || gl[i] != wl[i] {
				var w string
				if i < len(wl) {
					w = wl[i]
				}
				t.Fatalf("%s:%d differs:\n got  %s\n want %s", golden, i+1, gl[i], w)
			}
		}
		t.Fatalf("%s: got %d lines, want %d", golden, len(gl), len(wl))
	}
}
