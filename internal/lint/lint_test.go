package lint_test

import (
	"path/filepath"
	"testing"

	"congestmst/internal/lint"
	"congestmst/internal/lint/analysis"
	"congestmst/internal/lint/analysistest"
	"congestmst/internal/lint/load"
)

// Each analyzer has a fixture package under testdata/src/<name>
// containing both violating lines (marked `// want "re"`) and
// conforming shapes that must stay silent, including the
// //lint:allow directive path. The fiberpark fixture blocks on raw
// channels from a Fiber, a continuation and helpers reached through
// the call graph, against the real congest types.
func TestAnalyzers(t *testing.T) {
	for _, a := range lint.All() {
		t.Run(a.Name, func(t *testing.T) {
			analysistest.Run(t, a, filepath.Join("testdata", "src", a.Name))
		})
	}
}

func TestDeterministicPackageScope(t *testing.T) {
	if !lint.IsDeterministicPackage("congestmst/internal/forest") {
		t.Fatal("forest must be under the determinism contract")
	}
	if lint.IsDeterministicPackage("congestmst/internal/obs") {
		t.Fatal("obs is observability, not engine state")
	}
	if got := len(lint.For("congestmst/internal/congest")); got != len(lint.All()) {
		t.Fatalf("deterministic packages run the whole suite, got %d analyzers", got)
	}
	if got := len(lint.For("congestmst/internal/service")); got >= len(lint.All()) {
		t.Fatalf("service must not run the determinism-only analyzers, got %d", got)
	}
}

// TestRepoClean runs the suite over the whole module, the same gate
// `make lint` applies: the tree must stay free of findings. Skipped in
// short mode (CI runs `make lint` as its own job); the long path here
// keeps `go test ./...` a one-command full verification.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: make lint covers this")
	}
	root := filepath.Join("..", "..")
	pkgs, err := load.GoList(root, []string{"./..."})
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	loader := load.NewLoader()
	for _, lp := range pkgs {
		if len(lp.GoFiles) == 0 {
			continue
		}
		pkg, err := loader.LoadFiles(lp.ImportPath, lp.Dir, lp.GoFiles)
		if err != nil {
			t.Fatalf("loading %s: %v", lp.ImportPath, err)
		}
		for _, a := range lint.For(lp.ImportPath) {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Report: func(d analysis.Diagnostic) {
					t.Errorf("%s: %s: %s", pkg.Fset.Position(d.Pos), a.Name, d.Message)
				},
			}
			if err := a.Run(pass); err != nil {
				t.Fatalf("%s on %s: %v", a.Name, lp.ImportPath, err)
			}
		}
	}
}
