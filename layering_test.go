package komp

import (
	"go/build"
	"strings"
	"testing"
)

// TestLayering checks the module map of DESIGN §2 as a dependency rule:
// the packages that produce execution and instrumentation (the exec
// layer, the simulator, the runtime, the spine, places, the device)
// never import, directly or through another package of the module, a
// package that consumes them (the Chrome trace emitter, the figure
// harness). A consumer attaches itself to a producer from the outside —
// trace.Attach on an ompt.Spine — never the other way round.
func TestLayering(t *testing.T) {
	const module = "github.com/interweaving/komp/"
	producers := []string{"exec", "sim", "omp", "ompt", "places", "device"}
	consumers := []string{"trace", "bench"}

	// via[dep] is the package through which the walk first reached dep.
	var walk func(dir string, via map[string]string)
	walk = func(dir string, via map[string]string) {
		pkg, err := build.ImportDir(dir, 0)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		for _, imp := range pkg.Imports {
			dep, ok := strings.CutPrefix(imp, module)
			if !ok {
				continue
			}
			if _, seen := via[dep]; !seen {
				via[dep] = dir
				walk(dep, via)
			}
		}
	}
	for _, p := range producers {
		dir := "internal/" + p
		via := map[string]string{}
		walk(dir, via)
		for _, c := range consumers {
			if from, ok := via["internal/"+c]; ok {
				t.Errorf("%s imports consumer internal/%s (through %s)", dir, c, from)
			}
		}
	}
}
