package core

import (
	"testing"
	"testing/quick"

	"congestmst/internal/congest"
	"congestmst/internal/graph"
	"congestmst/internal/mathx"
)

// lockstep runs the algorithm on the lockstep engine and returns the
// per-vertex results.
func lockstep(g *graph.Graph, cfg Config, engCfg congest.Config) ([]*Result, *congest.Stats, error) {
	results := make([]*Result, g.N())
	stats, err := congest.NewEngine(g, engCfg).Run(FiberFactory(g.N(), cfg, func(id int, res *Result) {
		results[id] = res
	}))
	return results, stats, err
}

// runMST executes the algorithm and returns per-vertex results + stats.
func runMST(t *testing.T, g *graph.Graph, cfg Config, engCfg congest.Config) ([]*Result, *congest.Stats) {
	t.Helper()
	results, stats, err := lockstep(g, cfg, engCfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return results, stats
}

// checkMST asserts that the per-vertex MST ports reproduce exactly the
// unique (Kruskal) MST: every MST edge is marked at both endpoints and
// nothing else is marked.
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
	marked := make(map[int]int) // edge index -> endpoint marks
	for v, res := range results {
		for _, p := range res.MSTPorts {
			marked[g.Adj(v)[p].Edge]++
		}
	}
	for ei, cnt := range marked {
		if !want[ei] {
			t.Errorf("edge %v marked but not in MST", g.Edge(ei))
		}
		if cnt != 2 {
			t.Errorf("edge %v marked at %d endpoints, want 2", g.Edge(ei), cnt)
		}
	}
	for ei := range want {
		if marked[ei] != 2 {
			t.Errorf("MST edge %v marked at %d endpoints, want 2", g.Edge(ei), marked[ei])
		}
	}
}

func coreGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	r1, err := graph.RandomConnected(96, 300, graph.GenOptions{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := graph.RandomConnected(120, 130, graph.GenOptions{Seed: 32, Weights: graph.WeightsRandom})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{
		"single":   graph.Path(1, graph.GenOptions{}),
		"pair":     graph.Path(2, graph.GenOptions{}),
		"path":     graph.Path(40, graph.GenOptions{Seed: 1}),
		"ring":     graph.Ring(37, graph.GenOptions{Seed: 2}),
		"grid":     graph.Grid(7, 8, graph.GenOptions{Seed: 3}),
		"complete": graph.Complete(14, graph.GenOptions{Seed: 4, Weights: graph.WeightsUnit}),
		"star":     graph.Star(25, graph.GenOptions{Seed: 5}),
		"lollipop": graph.Lollipop(9, 15, graph.GenOptions{Seed: 6}),
		"bintree":  graph.BinaryTree(31, graph.GenOptions{Seed: 7}),
		"random":   r1,
		"sparse":   r2,
	}
}

func TestMSTMatchesKruskal(t *testing.T) {
	for name, g := range coreGraphs(t) {
		t.Run(name, func(t *testing.T) {
			results, _ := runMST(t, g, Config{}, congest.Config{})
			checkMST(t, g, results)
			// All vertices agree on the final fragment.
			for v := 1; v < g.N(); v++ {
				if results[v].FragID != results[0].FragID {
					t.Errorf("vertex %d final fragment %d != %d", v, results[v].FragID, results[0].FragID)
				}
			}
		})
	}
}

func TestMSTRandomizedProperty(t *testing.T) {
	// Property: on arbitrary random connected graphs with unit weights
	// (maximum tie-break stress) the distributed MST equals Kruskal's.
	f := func(seed uint64, nRaw, extraRaw uint16) bool {
		n := 2 + int(nRaw%40)
		maxExtra := n*(n-1)/2 - (n - 1)
		extra := 0
		if maxExtra > 0 {
			extra = int(extraRaw) % (maxExtra + 1)
		}
		g, err := graph.RandomConnected(n, n-1+extra, graph.GenOptions{Seed: seed, Weights: graph.WeightsUnit})
		if err != nil {
			return false
		}
		results, _, err := lockstep(g, Config{}, congest.Config{})
		if err != nil {
			return false
		}
		mst, err := g.Kruskal()
		if err != nil {
			return false
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
		if len(marked) != len(want) {
			return false
		}
		for ei, c := range marked {
			if !want[ei] || c != 2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestMSTWithBandwidth(t *testing.T) {
	// Theorem 3.2: the algorithm must stay correct for every b, and
	// bigger b must not be slower.
	g, err := graph.RandomConnected(128, 400, graph.GenOptions{Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	var prevRounds int64
	for i, b := range []int{1, 2, 4, 8} {
		results, stats := runMST(t, g, Config{}, congest.Config{Bandwidth: b})
		checkMST(t, g, results)
		if i > 0 && stats.Rounds > prevRounds+50 {
			t.Errorf("b=%d took %d rounds, slower than previous b (%d)", b, stats.Rounds, prevRounds)
		}
		prevRounds = stats.Rounds
	}
}

func TestMSTNonZeroRoot(t *testing.T) {
	g := graph.Grid(6, 6, graph.GenOptions{Seed: 43})
	results, _ := runMST(t, g, Config{Root: 17}, congest.Config{})
	checkMST(t, g, results)
}

func TestMSTAblationFixedK(t *testing.T) {
	// The ablation pins k = sqrt(n) on a high-diameter graph; the MST
	// must still be correct, only the complexity differs.
	g := graph.Ring(64, graph.GenOptions{Seed: 44})
	n := g.N()
	results, _ := runMST(t, g, Config{FixedK: mathx.ISqrtCeil(n)}, congest.Config{})
	checkMST(t, g, results)
	if results[0].K != mathx.ISqrtCeil(n) {
		t.Errorf("K = %d, want %d", results[0].K, mathx.ISqrtCeil(n))
	}
}

// TestMSTSingletonBaseForest covers k = 1, where Controlled-GHS runs
// no phase and hands over a forest of singletons whose neighbor
// identities it never learned: pinned k = 1, and the paper's rule on
// graphs with n <= b and height 1.
func TestMSTSingletonBaseForest(t *testing.T) {
	ring := graph.Ring(16, graph.GenOptions{Seed: 45})
	results, _ := runMST(t, ring, Config{FixedK: 1}, congest.Config{})
	checkMST(t, ring, results)

	complete := graph.Complete(4, graph.GenOptions{Seed: 46})
	results, _ = runMST(t, complete, Config{}, congest.Config{Bandwidth: 4})
	checkMST(t, complete, results)
	if results[0].K != 1 {
		t.Errorf("K = %d on Complete(4) with b = 4, want 1", results[0].K)
	}
}

// tauTraffic sums the messages that travel over the BFS tree τ during
// the Boruvka stage: the pipelined upcast and the interval-routed
// downcast. This is exactly the term the paper's Section 1.2 analyses:
// Θ(D·|F|) per phase, i.e. Θ(D·sqrt(n)) for the pinned k = sqrt(n)
// strategy versus O(n) for the paper's k = max(sqrt(n), D) rule.
func tauTraffic(s *congest.Stats) int64 {
	return s.ByKind[9] + s.ByKind[10] + s.ByKind[11] + s.ByKind[12] // Up, UpDone, Route, RouteFlush
}

func TestAblationMessageBlowupOnHighDiameter(t *testing.T) {
	g := graph.Ring(128, graph.GenOptions{Seed: 45})
	_, paper := runMST(t, g, Config{}, congest.Config{})
	_, ablation := runMST(t, g, Config{FixedK: mathx.ISqrtCeil(g.N())}, congest.Config{})
	p, a := tauTraffic(paper), tauTraffic(ablation)
	if a <= 2*p {
		t.Errorf("ablation τ-traffic %d, paper rule %d; expected a blow-up on D >> sqrt(n)", a, p)
	}
}

func TestKSelectionRule(t *testing.T) {
	// k = max(sqrt(n/b), height(τ)).
	lowD, err := graph.RandomConnected(100, 600, graph.GenOptions{Seed: 46})
	if err != nil {
		t.Fatal(err)
	}
	results, _ := runMST(t, lowD, Config{}, congest.Config{})
	if k := results[0].K; k < mathx.ISqrtCeil(100) || k > 100/2 {
		t.Errorf("low-diameter k = %d, want around sqrt(n)=10", k)
	}
	highD := graph.Ring(100, graph.GenOptions{Seed: 47})
	results, _ = runMST(t, highD, Config{}, congest.Config{})
	if k := results[0].K; k < 40 {
		t.Errorf("ring k = %d, want >= height of BFS tree (about n/2)", k)
	}
}

func TestBoruvkaHalving(t *testing.T) {
	// |F̂_{j+1}| <= |F̂_j| / 2, hence at most log2 n phases.
	g, err := graph.RandomConnected(200, 500, graph.GenOptions{Seed: 48})
	if err != nil {
		t.Fatal(err)
	}
	m := &Metrics{}
	results, _ := runMST(t, g, Config{Metrics: m}, congest.Config{})
	checkMST(t, g, results)
	for j := 1; j < len(m.PhaseFragments); j++ {
		if m.PhaseFragments[j] > (m.PhaseFragments[j-1]+1)/2 {
			t.Errorf("phase %d: %d fragments after %d; Boruvka did not halve",
				j, m.PhaseFragments[j], m.PhaseFragments[j-1])
		}
	}
	if results[0].BoruvkaPhases > mathx.Log2Ceil(g.N())+1 {
		t.Errorf("%d Boruvka phases for n=%d", results[0].BoruvkaPhases, g.N())
	}
}

// phaseLog is an Observer that keeps the phase events of a run.
type phaseLog struct{ events []congest.PhaseEvent }

func (l *phaseLog) OnRound(congest.RoundEvent)    {}
func (l *phaseLog) OnPhase(ev congest.PhaseEvent) { l.events = append(l.events, ev) }

func TestMetricsDecomposition(t *testing.T) {
	// The Equation (1) decomposition must account for the whole run.
	g, err := graph.RandomConnected(100, 300, graph.GenOptions{Seed: 49})
	if err != nil {
		t.Fatal(err)
	}
	m, phases := &Metrics{}, &phaseLog{}
	_, stats := runMST(t, g, Config{Metrics: m, Observer: phases}, congest.Config{})
	if m.N != 100 {
		t.Errorf("Metrics.N = %d", m.N)
	}
	if m.BaseFragments < 1 || m.BaseFragments > 2*100/m.K+1 {
		t.Errorf("BaseFragments = %d with k=%d", m.BaseFragments, m.K)
	}
	var sum int64 = m.BuildRounds + m.ForestRounds + m.RegisterRounds
	for _, pr := range m.PhaseRounds {
		sum += pr
	}
	if sum > stats.Rounds {
		t.Errorf("decomposition %d exceeds total rounds %d", sum, stats.Rounds)
	}
	if sum < stats.Rounds/2 {
		t.Errorf("decomposition %d accounts for less than half of %d rounds", sum, stats.Rounds)
	}
	// Each stage runs from the previous stage's PhaseEvent (round 0
	// for the first) to its own.
	stages := append([]int64{m.BuildRounds, m.ForestRounds, m.RegisterRounds}, m.PhaseRounds...)
	if len(phases.events) != len(stages) {
		t.Fatalf("%d phase events for %d stages in Metrics", len(phases.events), len(stages))
	}
	var prev int64
	for i, ev := range phases.events {
		if ev.Round-prev != stages[i] {
			t.Errorf("event %d (%s): %d rounds since the previous one, Metrics says %d", i, ev.Name, ev.Round-prev, stages[i])
		}
		prev = ev.Round
	}
}

func TestTheorem31Complexity(t *testing.T) {
	// O((D + sqrt(n))·log n) rounds, O(m log n + n log n log* n)
	// messages, with implementation constants (the window schedule
	// spends ~300·2^i rounds per Controlled-GHS phase).
	tests := []struct {
		name string
		g    *graph.Graph
	}{
		{"random", mustRandom(t, 256, 1024, 51)},
		{"grid", graph.Grid(16, 16, graph.GenOptions{Seed: 52})},
		{"ring", graph.Ring(256, graph.GenOptions{Seed: 53})},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			results, stats := runMST(t, tt.g, Config{}, congest.Config{})
			checkMST(t, tt.g, results)
			n := tt.g.N()
			d := tt.g.DiameterEstimate() * 2 // upper bound on D
			logn := mathx.Log2Ceil(n)
			roundBound := int64(900 * (d + mathx.ISqrtCeil(n)) * logn)
			if stats.Rounds > roundBound {
				t.Errorf("%d rounds > C(D+sqrt n)log n = %d", stats.Rounds, roundBound)
			}
			msgBound := int64(8*tt.g.M()*logn + 60*n*logn + 10*n*mathx.LogStar(n)*logn)
			if stats.Messages > msgBound {
				t.Errorf("%d messages > C(m log n + n log n log* n) = %d", stats.Messages, msgBound)
			}
		})
	}
}

func TestDeterministicRuns(t *testing.T) {
	g, err := graph.RandomConnected(80, 240, graph.GenOptions{Seed: 54})
	if err != nil {
		t.Fatal(err)
	}
	_, s1 := runMST(t, g, Config{}, congest.Config{})
	_, s2 := runMST(t, g, Config{}, congest.Config{})
	if *s1 != *s2 {
		t.Errorf("stats differ between identical runs")
	}
}

func TestUnitWeightGraphMST(t *testing.T) {
	// Every edge weight equal: the tie-broken MST must be reproduced.
	g := graph.Grid(8, 8, graph.GenOptions{Weights: graph.WeightsUnit})
	results, _ := runMST(t, g, Config{}, congest.Config{})
	checkMST(t, g, results)
}

func mustRandom(t *testing.T, n, m int, seed uint64) *graph.Graph {
	t.Helper()
	g, err := graph.RandomConnected(n, m, graph.GenOptions{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return g
}
