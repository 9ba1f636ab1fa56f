package pipeline

import (
	"testing"
	"testing/quick"

	"congestmst/internal/congest"
	"congestmst/internal/graph"
	"congestmst/internal/mathx"
)

// lockstep runs Pipeline-MST rooted at vertex 0 on the lockstep
// engine and returns the per-vertex results.
func lockstep(g *graph.Graph, cfg congest.Config) ([]*Result, *congest.Stats, error) {
	results := make([]*Result, g.N())
	stats, err := congest.NewEngine(g, cfg).Run(FiberFactory(g.N(), 0, func(id int, res *Result) {
		results[id] = res
	}))
	return results, stats, err
}

func runPipeline(t *testing.T, g *graph.Graph, cfg congest.Config) ([]*Result, *congest.Stats) {
	t.Helper()
	results, stats, err := lockstep(g, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return results, stats
}

func checkMST(t *testing.T, g *graph.Graph, results []*Result) {
	t.Helper()
	mst, err := g.Kruskal()
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int]bool, len(mst))
	for _, ei := range mst {
		want[ei] = true
	}
	marked := make(map[int]int)
	for v, res := range results {
		for _, p := range res.MSTPorts {
			marked[g.Adj(v)[p].Edge]++
		}
	}
	for ei := range want {
		if marked[ei] != 2 {
			t.Errorf("MST edge %v marked %d times, want 2", g.Edge(ei), marked[ei])
		}
	}
	for ei := range marked {
		if !want[ei] {
			t.Errorf("edge %v marked but not in MST", g.Edge(ei))
		}
	}
}

func TestPipelineMatchesKruskal(t *testing.T) {
	r1, err := graph.RandomConnected(90, 280, graph.GenOptions{Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]*graph.Graph{
		"single":   graph.Path(1, graph.GenOptions{}),
		"pair":     graph.Path(2, graph.GenOptions{}),
		"path":     graph.Path(25, graph.GenOptions{Seed: 1}),
		"ring":     graph.Ring(26, graph.GenOptions{Seed: 2}),
		"grid":     graph.Grid(5, 7, graph.GenOptions{Seed: 3}),
		"complete": graph.Complete(13, graph.GenOptions{Seed: 4, Weights: graph.WeightsUnit}),
		"lollipop": graph.Lollipop(8, 10, graph.GenOptions{Seed: 5}),
		"random":   r1,
	}
	for name, g := range cases {
		t.Run(name, func(t *testing.T) {
			results, _ := runPipeline(t, g, congest.Config{})
			checkMST(t, g, results)
		})
	}
}

func TestPipelineProperty(t *testing.T) {
	f := func(seed uint64, nRaw, extraRaw uint16) bool {
		n := 2 + int(nRaw%30)
		maxExtra := n*(n-1)/2 - (n - 1)
		extra := 0
		if maxExtra > 0 {
			extra = int(extraRaw) % (maxExtra + 1)
		}
		g, err := graph.RandomConnected(n, n-1+extra, graph.GenOptions{Seed: seed, Weights: graph.WeightsUnit})
		if err != nil {
			return false
		}
		results, _, err := lockstep(g, congest.Config{})
		if err != nil {
			return false
		}
		mst, err := g.Kruskal()
		if err != nil {
			return false
		}
		marked := make(map[int]int)
		for v, res := range results {
			for _, p := range res.MSTPorts {
				marked[g.Adj(v)[p].Edge]++
			}
		}
		if len(marked) != len(mst) {
			return false
		}
		for _, ei := range mst {
			if marked[ei] != 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPipelineComplexityShape(t *testing.T) {
	// O(D + sqrt(n) log* n) rounds; messages carry the n^{3/2} term.
	g, err := graph.RandomConnected(196, 600, graph.GenOptions{Seed: 72})
	if err != nil {
		t.Fatal(err)
	}
	results, stats := runPipeline(t, g, congest.Config{})
	checkMST(t, g, results)
	n := g.N()
	sq := mathx.ISqrtCeil(n)
	if bound := int64(900 * (g.Diameter() + sq)); stats.Rounds > bound {
		t.Errorf("%d rounds > %d (O(D + sqrt n log* n))", stats.Rounds, bound)
	}
	// Message bound: forest construction O(m log k + n log k log* n)
	// plus the pipeline's O(n^{3/2}).
	logk := mathx.Log2Ceil(sq)
	bound := int64(6*g.M()*logk + 40*n*logk + 4*n*sq + 10*n)
	if stats.Messages > bound {
		t.Errorf("%d messages > %d", stats.Messages, bound)
	}
}

func TestPipelineBandwidth(t *testing.T) {
	g, err := graph.RandomConnected(100, 300, graph.GenOptions{Seed: 73})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []int{1, 4} {
		results, _ := runPipeline(t, g, congest.Config{Bandwidth: b})
		checkMST(t, g, results)
	}
}
