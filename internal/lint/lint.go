// Package lint is the mstlint analyzer suite: five repo-specific
// static checks that turn this repository's load-bearing runtime
// invariants — bit-identical Rounds/Messages/ByKind across engines,
// the congest.Fiber park contract, atomics discipline on metrics
// counters, and the nil-Observer fast path — into compile-time
// errors. See README.md's "Static analysis" section for what each
// analyzer enforces and why; run the suite with `make lint`.
package lint

import "congestmst/internal/lint/analysis"

// congestPath is the package every contract-bearing type (Context,
// Fiber, Step, Observer) lives in. Analyzers match types by this path
// plus name, never by object identity, because the loader may
// type-check congest more than once per process.
const congestPath = "congestmst/internal/congest"

// DeterministicPackages lists the engine and algorithm packages whose
// behaviour must be bit-reproducible run to run: everything that
// executes between Run()'s entry and its Stats return. detrange and
// noclock fire only inside these; the other three analyzers apply
// repo-wide.
var DeterministicPackages = []string{
	"congestmst/internal/algo",
	"congestmst/internal/congest",
	"congestmst/internal/parsim",
	"congestmst/internal/nettrans",
	"congestmst/internal/core",
	"congestmst/internal/forest",
	"congestmst/internal/fragops",
	"congestmst/internal/bfstree",
	"congestmst/internal/ghs",
	"congestmst/internal/pipeline",
	"congestmst/internal/dynamic",
}

// IsDeterministicPackage reports whether importPath is under the
// bit-reproducibility contract.
func IsDeterministicPackage(importPath string) bool {
	for _, p := range DeterministicPackages {
		if importPath == p {
			return true
		}
	}
	return false
}

// All returns the full suite in reporting order.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{Detrange, Noclock, Fiberpark, Atomicfield, Obsnil}
}

// For returns the analyzers that apply to importPath: the whole suite
// inside the deterministic packages, the repo-wide three elsewhere.
func For(importPath string) []*analysis.Analyzer {
	if IsDeterministicPackage(importPath) {
		return All()
	}
	return []*analysis.Analyzer{Fiberpark, Atomicfield, Obsnil}
}
