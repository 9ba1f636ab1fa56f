package forest

import (
	"testing"

	"congestmst/internal/bfstree"
	"congestmst/internal/congest"
	"congestmst/internal/graph"
)

// runForest builds the BFS tree (to align the vertices), runs the
// Controlled-GHS construction, and returns the per-vertex states, the
// trace, and run stats.
func runForest(t *testing.T, g *graph.Graph, k int, cfg congest.Config) ([]*State, *Trace, *congest.Stats) {
	t.Helper()
	states := make([]*State, g.N())
	trace := NewTrace(g.N(), k)
	e := congest.NewEngine(g, cfg)
	stats, err := e.Run(congest.StepFiberFactory(g.N(), func(c congest.Context) congest.Step {
		return bfstree.Build(c, 0, func(c congest.Context, _ *bfstree.Tree) congest.Step {
			return Program(c, k, trace, func(c congest.Context, st *State) congest.Step {
				states[c.ID()] = st
				return congest.Done()
			})
		})
	}))
	if err != nil {
		t.Fatalf("Run(k=%d): %v", k, err)
	}
	return states, trace, stats
}

// fragmentsOf groups vertices by fragment id.
func fragmentsOf(frag []int64) map[int64][]int {
	m := make(map[int64][]int)
	for v, f := range frag {
		m[f] = append(m[f], v)
	}
	return m
}

// treeAdj builds per-vertex fragment-tree adjacency from parent ports.
func treeAdj(g *graph.Graph, parents []int) [][]int {
	adj := make([][]int, g.N())
	for v, pp := range parents {
		if pp < 0 {
			continue
		}
		u := g.Adj(v)[pp].To
		adj[v] = append(adj[v], u)
		adj[u] = append(adj[u], v)
	}
	return adj
}

// fragDiameter returns the exact diameter of the fragment containing
// the given members under the tree adjacency.
func fragDiameter(adj [][]int, members []int) int {
	bfs := func(src int, allowed map[int]bool) (int, int) {
		dist := map[int]int{src: 0}
		queue := []int{src}
		far, best := src, 0
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range adj[v] {
				if !allowed[u] {
					continue
				}
				if _, ok := dist[u]; !ok {
					dist[u] = dist[v] + 1
					if dist[u] > best {
						best, far = dist[u], u
					}
					queue = append(queue, u)
				}
			}
		}
		return far, best
	}
	allowed := make(map[int]bool, len(members))
	for _, v := range members {
		allowed[v] = true
	}
	far, _ := bfs(members[0], allowed)
	_, d := bfs(far, allowed)
	return d
}

// mstEdgeSet returns the unique MST's edges as a set of edge indices.
func mstEdgeSet(t *testing.T, g *graph.Graph) map[int]bool {
	t.Helper()
	mst, err := g.Kruskal()
	if err != nil {
		t.Fatal(err)
	}
	set := make(map[int]bool, len(mst))
	for _, e := range mst {
		set[e] = true
	}
	return set
}

func forestGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	r1, err := graph.RandomConnected(64, 160, graph.GenOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := graph.RandomConnected(100, 110, graph.GenOptions{Seed: 6, Weights: graph.WeightsRandom})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"path":     graph.Path(33, graph.GenOptions{Seed: 1}),
		"ring":     graph.Ring(32, graph.GenOptions{Seed: 2}),
		"grid":     graph.Grid(6, 7, graph.GenOptions{Seed: 3}),
		"complete": graph.Complete(12, graph.GenOptions{Seed: 4, Weights: graph.WeightsUnit}),
		"star":     graph.Star(20, graph.GenOptions{Seed: 7}),
		"lollipop": graph.Lollipop(8, 12, graph.GenOptions{Seed: 8}),
		"random":   r1,
		"sparse":   r2,
	}
}

func TestForestEdgesAreMSTEdges(t *testing.T) {
	for name, g := range forestGraphs(t) {
		t.Run(name, func(t *testing.T) {
			states, _, _ := runForest(t, g, 8, congest.Config{})
			mst := mstEdgeSet(t, g)
			for v, st := range states {
				if st.Tree.Parent < 0 {
					continue
				}
				ei := g.Adj(v)[st.Tree.Parent].Edge
				if !mst[ei] {
					t.Errorf("vertex %d: fragment edge %v is not an MST edge", v, g.Edge(ei))
				}
			}
		})
	}
}

func TestForestParentChildConsistency(t *testing.T) {
	for name, g := range forestGraphs(t) {
		t.Run(name, func(t *testing.T) {
			states, _, _ := runForest(t, g, 8, congest.Config{})
			for v, st := range states {
				if st.Tree.Parent < 0 {
					if st.FragID != int64(v) {
						t.Errorf("fragment root %d has FragID %d", v, st.FragID)
					}
					continue
				}
				u := g.Adj(v)[st.Tree.Parent].To
				if states[u].FragID != st.FragID {
					t.Errorf("vertex %d (frag %d) has parent %d in frag %d", v, st.FragID, u, states[u].FragID)
				}
				// v must appear among u's children.
				found := false
				for _, cp := range states[u].Tree.Children {
					if g.Adj(u)[cp].To == v {
						found = true
					}
				}
				if !found {
					t.Errorf("vertex %d missing from parent %d's children", v, u)
				}
			}
			// Every fragment has exactly one root, which is the FragID vertex.
			frags := fragmentsOf(fragIDs(states))
			for id, members := range frags {
				roots := 0
				for _, v := range members {
					if states[v].Tree.Parent < 0 {
						roots++
						if int64(v) != id {
							t.Errorf("fragment %d rooted at %d", id, v)
						}
					}
				}
				if roots != 1 {
					t.Errorf("fragment %d has %d roots", id, roots)
				}
			}
		})
	}
}

func fragIDs(states []*State) []int64 {
	ids := make([]int64, len(states))
	for v, st := range states {
		ids[v] = st.FragID
	}
	return ids
}

func parentPorts(states []*State) []int {
	pp := make([]int, len(states))
	for v, st := range states {
		pp[v] = st.Tree.Parent
	}
	return pp
}

func TestForestCountAndDiameterBounds(t *testing.T) {
	// Theorem 4.3: an (n/k, O(k))-MST forest. With t = ceil(log2 k)
	// phases the construction guarantees at most n/2^(t-1) <= 2n/k
	// fragments, each of diameter at most 6·2^t <= 12k.
	for name, g := range forestGraphs(t) {
		for _, k := range []int{2, 4, 8, 16} {
			states, _, _ := runForest(t, g, k, congest.Config{})
			frags := fragmentsOf(fragIDs(states))
			maxFrags := 2*g.N()/k + 1
			if len(frags) > maxFrags {
				t.Errorf("%s k=%d: %d fragments, want <= %d", name, k, len(frags), maxFrags)
			}
			adj := treeAdj(g, parentPorts(states))
			for id, members := range frags {
				if d := fragDiameter(adj, members); d > 12*k {
					t.Errorf("%s k=%d: fragment %d diameter %d > %d", name, k, id, d, 12*k)
				}
			}
		}
	}
}

func TestForestFragmentsSpanAndAreConnected(t *testing.T) {
	for name, g := range forestGraphs(t) {
		t.Run(name, func(t *testing.T) {
			states, _, _ := runForest(t, g, 8, congest.Config{})
			adj := treeAdj(g, parentPorts(states))
			frags := fragmentsOf(fragIDs(states))
			covered := 0
			for _, members := range frags {
				covered += len(members)
				// Connected within the fragment tree: BFS from members[0]
				// must reach them all.
				allowed := make(map[int]bool, len(members))
				for _, v := range members {
					allowed[v] = true
				}
				seen := map[int]bool{members[0]: true}
				queue := []int{members[0]}
				for len(queue) > 0 {
					v := queue[0]
					queue = queue[1:]
					for _, u := range adj[v] {
						if allowed[u] && !seen[u] {
							seen[u] = true
							queue = append(queue, u)
						}
					}
				}
				if len(seen) != len(members) {
					t.Errorf("fragment of size %d only connects %d vertices", len(members), len(seen))
				}
			}
			if covered != g.N() {
				t.Errorf("fragments cover %d of %d vertices", covered, g.N())
			}
		})
	}
}

func TestLemma42MinimumFragmentSize(t *testing.T) {
	// Lemma 4.2: after phase i (for i <= t-2), every fragment has at
	// least 2^i vertices; hence |F_i| <= n/2^(i-1).
	for name, g := range forestGraphs(t) {
		k := 16
		_, trace, _ := runForest(t, g, k, congest.Config{})
		for i := 0; i < len(trace.Frag); i++ {
			frags := fragmentsOf(trace.Frag[i])
			minSize := g.N()
			for _, members := range frags {
				if len(members) < minSize {
					minSize = len(members)
				}
			}
			if i <= len(trace.Frag)-2 && len(frags) > 1 {
				want := 1 << uint(i)
				if minSize < want {
					t.Errorf("%s: after phase %d the smallest fragment has %d vertices, want >= %d",
						name, i, minSize, want)
				}
			}
		}
	}
}

func TestLemma41DiameterPerPhase(t *testing.T) {
	// Lemma 4.1: Diam(F_{i+1}) <= 6·2^(i+1).
	for name, g := range forestGraphs(t) {
		_, trace, _ := runForest(t, g, 16, congest.Config{})
		for i := 0; i < len(trace.Frag); i++ {
			adj := treeAdj(g, trace.Parent[i])
			bound := 6 * (1 << uint(i+1))
			for id, members := range fragmentsOf(trace.Frag[i]) {
				if d := fragDiameter(adj, members); d > bound {
					t.Errorf("%s: after phase %d fragment %d has diameter %d > %d",
						name, i, id, d, bound)
				}
			}
		}
	}
}

func TestForestCoarsening(t *testing.T) {
	// F_{i+1} coarsens F_i: two vertices sharing a fragment after phase
	// i still share one after phase i+1.
	for name, g := range forestGraphs(t) {
		_, trace, _ := runForest(t, g, 16, congest.Config{})
		for i := 0; i+1 < len(trace.Frag); i++ {
			rep := make(map[int64]int64) // old fragment -> new fragment
			for v := range trace.Frag[i] {
				old, next := trace.Frag[i][v], trace.Frag[i+1][v]
				if want, ok := rep[old]; ok {
					if want != next {
						t.Fatalf("%s: phase %d fragment %d split into %d and %d",
							name, i+1, old, want, next)
					}
				} else {
					rep[old] = next
				}
			}
		}
	}
}

// phaseMWOEs recomputes, offline, the MWOE of every participating
// fragment at the start of phase i, returning child->parent fragment
// pairs of the candidate fragment forest G'_i.
func phaseMWOEs(g *graph.Graph, startFrag []int64, size map[int64]int64, thresh int64) map[int64]int64 {
	mwoe := make(map[int64]int) // fragment -> edge index
	for ei, e := range g.Edges() {
		fu, fv := startFrag[e.U], startFrag[e.V]
		if fu == fv {
			continue
		}
		for _, f := range []int64{fu, fv} {
			if size[f] > thresh {
				continue
			}
			if cur, ok := mwoe[f]; !ok || g.Less(ei, cur) {
				mwoe[f] = ei
			}
		}
	}
	parent := make(map[int64]int64)
	for f, ei := range mwoe {
		e := g.Edge(ei)
		other := startFrag[e.U]
		if other == f {
			other = startFrag[e.V]
		}
		// Mutual MWOE: the higher-identity fragment is the parent.
		if oei, ok := mwoe[other]; ok && oei == ei && f > other {
			continue
		}
		if size[other] <= thresh { // parent must participate to be in G'_i
			parent[f] = other
		}
	}
	return parent
}

func TestColoringProperPerPhase(t *testing.T) {
	// The Cole-Vishkin stage must produce a proper 3-colouring of the
	// candidate fragment forest G'_i, verified offline by recomputing
	// the MWOEs from the trace.
	for name, g := range forestGraphs(t) {
		_, trace, _ := runForest(t, g, 16, congest.Config{})
		for i := 0; i < len(trace.Frag); i++ {
			sizes := make(map[int64]int64)
			for v := range trace.StartFrag[i] {
				f := trace.StartFrag[i][v]
				sizes[f]++
			}
			parent := phaseMWOEs(g, trace.StartFrag[i], sizes, 1<<uint(i))
			for child, par := range parent {
				cc, pc := trace.Color[i][child], trace.Color[i][par]
				if cc < 0 || cc > 2 || pc < 0 || pc > 2 {
					t.Errorf("%s phase %d: colours out of range: %d->%d, %d->%d",
						name, i, child, cc, par, pc)
				}
				if cc == pc {
					t.Errorf("%s phase %d: adjacent fragments %d and %d share colour %d",
						name, i, child, par, cc)
				}
			}
		}
	}
}

func TestForestComplexityBounds(t *testing.T) {
	// Theorem 4.3: O(k log* n) rounds and O(m log k + n log k log* n)
	// messages. The constants below reflect this implementation's
	// window schedule (about 50 windows of 6·2^i rounds per phase) and
	// guard against complexity regressions.
	g, err := graph.RandomConnected(256, 1024, graph.GenOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{4, 16, 64} {
		_, _, stats := runForest(t, g, k, congest.Config{})
		logK := Phases(k)
		maxRounds := int64(800*k + 400)
		if stats.Rounds > maxRounds {
			t.Errorf("k=%d: %d rounds, want <= %d (O(k log* n))", k, stats.Rounds, maxRounds)
		}
		maxMsgs := int64(6*g.M()*logK + 40*g.N()*logK + 10*g.N())
		if stats.Messages > maxMsgs {
			t.Errorf("k=%d: %d messages, want <= %d (O(m log k + n log k log* n))",
				k, stats.Messages, maxMsgs)
		}
	}
}

func TestForestSingletonAndTinyGraphs(t *testing.T) {
	single := graph.Path(1, graph.GenOptions{})
	states, _, _ := runForest(t, single, 4, congest.Config{})
	if states[0].FragID != 0 || states[0].Tree.Parent != -1 {
		t.Errorf("singleton state: %+v", states[0])
	}

	pairG := graph.Path(2, graph.GenOptions{})
	states, _, _ = runForest(t, pairG, 4, congest.Config{})
	if states[0].FragID != states[1].FragID {
		t.Errorf("pair not merged: %v vs %v", states[0], states[1])
	}
}

func TestForestKOne(t *testing.T) {
	// k=1 runs zero phases: the forest of singletons.
	g := graph.Ring(8, graph.GenOptions{})
	states, _, _ := runForest(t, g, 1, congest.Config{})
	for v, st := range states {
		if st.FragID != int64(v) || st.Tree.Parent != -1 || len(st.Tree.Children) != 0 {
			t.Errorf("vertex %d not a singleton: %+v", v, st)
		}
	}
}

func TestForestWholeGraphMerged(t *testing.T) {
	// With k >= n the forest may collapse to a single fragment, which
	// must then be the entire MST.
	g := graph.Grid(4, 4, graph.GenOptions{Seed: 13})
	states, _, _ := runForest(t, g, 32, congest.Config{})
	frags := fragmentsOf(fragIDs(states))
	if len(frags) != 1 {
		t.Fatalf("got %d fragments, want 1", len(frags))
	}
	mst := mstEdgeSet(t, g)
	edges := 0
	for v, st := range states {
		if st.Tree.Parent >= 0 {
			ei := g.Adj(v)[st.Tree.Parent].Edge
			if !mst[ei] {
				t.Errorf("edge %v not in MST", g.Edge(ei))
			}
			edges++
		}
	}
	if edges != g.N()-1 {
		t.Errorf("%d tree edges, want %d", edges, g.N()-1)
	}
}

func TestForestDeterministic(t *testing.T) {
	g, err := graph.RandomConnected(48, 120, graph.GenOptions{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	run := func() ([]int64, *congest.Stats) {
		states, _, stats := runForest(t, g, 8, congest.Config{})
		return fragIDs(states), stats
	}
	f1, s1 := run()
	f2, s2 := run()
	if *s1 != *s2 {
		t.Errorf("stats differ: %+v vs %+v", s1, s2)
	}
	for v := range f1 {
		if f1[v] != f2[v] {
			t.Errorf("vertex %d fragment differs between runs", v)
		}
	}
}

func TestForestWithBandwidth(t *testing.T) {
	// The construction never needs more than one message per edge per
	// round, so any bandwidth must give identical results.
	g := graph.Grid(5, 5, graph.GenOptions{Seed: 17})
	base, _, _ := runForest(t, g, 8, congest.Config{Bandwidth: 1})
	wide, _, _ := runForest(t, g, 8, congest.Config{Bandwidth: 8})
	for v := range base {
		if base[v].FragID != wide[v].FragID {
			t.Errorf("vertex %d: fragment differs under bandwidth 8", v)
		}
	}
}

func TestUnitWeightsTieBreaking(t *testing.T) {
	// With all-equal weights every MWOE decision rides on the
	// lexicographic tie-break; the fragment edges must still form a
	// subset of the unique (tie-broken) MST.
	g := graph.Complete(16, graph.GenOptions{Weights: graph.WeightsUnit})
	states, _, _ := runForest(t, g, 8, congest.Config{})
	mst := mstEdgeSet(t, g)
	for v, st := range states {
		if st.Tree.Parent >= 0 {
			ei := g.Adj(v)[st.Tree.Parent].Edge
			if !mst[ei] {
				t.Errorf("vertex %d fragment edge %v not in tie-broken MST", v, g.Edge(ei))
			}
		}
	}
}
