// Package algo is the one algorithm dispatch: it maps an algorithm's
// name to the fiber factory that runs it on every vertex. The facade
// (package congestmst) uses it for its in-process engines and a
// cluster worker (internal/cluster) for the shards it hosts, so a
// remote run executes exactly the fibers a local one does.
package algo

import (
	"fmt"

	"congestmst/internal/congest"
	"congestmst/internal/core"
	"congestmst/internal/forest"
	"congestmst/internal/ghs"
	"congestmst/internal/mathx"
	"congestmst/internal/pipeline"
)

// Spec names the algorithm to run on an n-vertex graph and its
// parameters.
type Spec struct {
	// Name is "elkin", "elkin-fixed-k", "ghs" or "pipeline".
	Name string
	// N is the number of vertices and Root the BFS root of the Elkin
	// variants and Pipeline.
	N, Root int
	// FixedK pins k for "elkin-fixed-k"; 0 means ceil(sqrt(n)).
	FixedK int
	// Metrics, ForestTrace and Observer instrument an Elkin-variant run
	// (see core.Config); nil leaves that part out.
	Metrics     *core.Metrics
	ForestTrace *forest.Trace
	Observer    congest.Observer
}

// Program returns the fiber factory of s's algorithm. Each vertex
// leaves its MST ports in ports[id] as its fiber retires, and the root
// vertex hands root the base-forest parameter k and the Boruvka phase
// count (zero where the algorithm has none; GHS never calls it). An
// unknown name is an error.
func Program(s Spec, ports [][]int, root func(k, phases int)) (func(id int) congest.Fiber, error) {
	switch s.Name {
	case "elkin", "elkin-fixed-k":
		cfg := core.Config{Root: s.Root, Metrics: s.Metrics, ForestTrace: s.ForestTrace, Observer: s.Observer}
		if s.Name == "elkin-fixed-k" {
			cfg.FixedK = s.FixedK
			if cfg.FixedK == 0 {
				cfg.FixedK = mathx.Max(1, mathx.ISqrtCeil(s.N))
			}
		}
		return core.FiberFactory(s.N, cfg, func(id int, r *core.Result) {
			ports[id] = r.MSTPorts
			if id == s.Root {
				root(r.K, r.BoruvkaPhases)
			}
		}), nil
	case "ghs":
		return ghs.FiberFactory(s.N, func(id int, mstPorts []int) { ports[id] = mstPorts }), nil
	case "pipeline":
		return pipeline.FiberFactory(s.N, s.Root, func(id int, r *pipeline.Result) {
			ports[id] = r.MSTPorts
			if id == s.Root {
				root(r.K, 0)
			}
		}), nil
	}
	return nil, fmt.Errorf("unknown algorithm %q (valid: elkin, elkin-fixed-k, ghs, pipeline)", s.Name)
}
