package komp

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
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

// TestNoKindComparisonsOutsideCore checks that which environment has
// which mechanism is decided in one place: the environment table of
// internal/core. No other non-test file of the module compares or
// switches on a core.Kind constant; it asks the core.Env instead.
func TestNoKindComparisonsOutsideCore(t *testing.T) {
	const corePath = "github.com/interweaving/komp/internal/core"
	kinds := map[string]bool{"Linux": true, "RTK": true, "PIK": true, "CCK": true, "LinuxAutoMP": true}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch {
			case path == "benchmark", path == "internal/core", d.Name() == "testdata",
				path != "." && strings.HasPrefix(d.Name(), "."):
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		name := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == corePath {
				name = "core"
				if imp.Name != nil {
					name = imp.Name.Name
				}
			}
		}
		if name == "" {
			return nil
		}
		isKind := func(e ast.Expr) bool {
			sel, ok := e.(*ast.SelectorExpr)
			if !ok {
				return false
			}
			x, ok := sel.X.(*ast.Ident)
			return ok && x.Name == name && kinds[sel.Sel.Name]
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if (n.Op == token.EQL || n.Op == token.NEQ) && (isKind(n.X) || isKind(n.Y)) {
					t.Errorf("%s: compares a core.Kind; ask the core.Env instead", fset.Position(n.Pos()))
				}
			case *ast.CaseClause:
				for _, e := range n.List {
					if isKind(e) {
						t.Errorf("%s: switches on a core.Kind; ask the core.Env instead", fset.Position(e.Pos()))
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
