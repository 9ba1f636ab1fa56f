package ghs

import (
	"testing"
	"testing/quick"

	"congestmst/internal/congest"
	"congestmst/internal/graph"
	"congestmst/internal/mathx"
)

// lockstep runs GHS on g and returns each vertex's MST ports.
func lockstep(g *graph.Graph, cfg congest.Config) ([][]int, *congest.Stats, error) {
	ports := make([][]int, g.N())
	stats, err := congest.NewEngine(g, cfg).Run(FiberFactory(g.N(), func(id int, mstPorts []int) {
		ports[id] = mstPorts
	}))
	return ports, stats, err
}

func runGHS(t *testing.T, g *graph.Graph, cfg congest.Config) ([][]int, *congest.Stats) {
	t.Helper()
	ports, stats, err := lockstep(g, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return ports, stats
}

func checkMST(t *testing.T, g *graph.Graph, results [][]int) {
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
	for v, ports := range results {
		for _, p := range ports {
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

func TestGHSMatchesKruskal(t *testing.T) {
	r1, err := graph.RandomConnected(80, 240, graph.GenOptions{Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]*graph.Graph{
		"single":   graph.Path(1, graph.GenOptions{}),
		"pair":     graph.Path(2, graph.GenOptions{}),
		"path":     graph.Path(30, graph.GenOptions{Seed: 1}),
		"ring":     graph.Ring(31, graph.GenOptions{Seed: 2}),
		"grid":     graph.Grid(6, 6, graph.GenOptions{Seed: 3}),
		"complete": graph.Complete(12, graph.GenOptions{Seed: 4, Weights: graph.WeightsUnit}),
		"star":     graph.Star(18, graph.GenOptions{Seed: 5}),
		"lollipop": graph.Lollipop(7, 11, graph.GenOptions{Seed: 6}),
		"random":   r1,
	}
	for name, g := range cases {
		t.Run(name, func(t *testing.T) {
			results, _ := runGHS(t, g, congest.Config{})
			checkMST(t, g, results)
		})
	}
}

func TestGHSProperty(t *testing.T) {
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
		for v, ports := range results {
			for _, p := range ports {
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
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestGHSComplexityShape(t *testing.T) {
	// O(n log n) rounds, O(m + n log n) messages (times the small
	// constant for the identity exchange and queue serialisation).
	g, err := graph.RandomConnected(128, 512, graph.GenOptions{Seed: 62})
	if err != nil {
		t.Fatal(err)
	}
	_, stats := runGHS(t, g, congest.Config{})
	n, m := g.N(), g.M()
	logn := mathx.Log2Ceil(n)
	if bound := int64(20 * n * logn); stats.Rounds > bound {
		t.Errorf("%d rounds > %d (O(n log n))", stats.Rounds, bound)
	}
	if bound := int64(6*m + 20*n*logn); stats.Messages > bound {
		t.Errorf("%d messages > %d (O(m + n log n))", stats.Messages, bound)
	}
}

func TestGHSDeterministic(t *testing.T) {
	g := graph.Grid(5, 5, graph.GenOptions{Seed: 63})
	_, s1 := runGHS(t, g, congest.Config{})
	_, s2 := runGHS(t, g, congest.Config{})
	if *s1 != *s2 {
		t.Error("stats differ between identical runs")
	}
}
