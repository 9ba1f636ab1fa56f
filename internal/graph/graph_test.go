package graph

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestBuilderValidation(t *testing.T) {
	tests := []struct {
		name string
		n    int
		add  [][3]int
	}{
		{name: "self-loop", n: 3, add: [][3]int{{1, 1, 5}}},
		{name: "out of range", n: 3, add: [][3]int{{0, 3, 5}}},
		{name: "negative", n: 3, add: [][3]int{{-1, 0, 5}}},
		{name: "duplicate", n: 3, add: [][3]int{{0, 1, 5}, {1, 0, 7}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b := NewBuilder(tt.n)
			for _, e := range tt.add {
				b.AddEdge(e[0], e[1], int64(e[2]))
			}
			if _, err := b.Graph(); err == nil {
				t.Errorf("Graph() accepted invalid input %v", tt.add)
			}
		})
	}
}

func TestAdjacencySortedAndConsistent(t *testing.T) {
	g, err := RandomConnected(50, 120, GenOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	degSum := 0
	for v := 0; v < g.N(); v++ {
		adj := g.Adj(v)
		degSum += len(adj)
		for i := 1; i < len(adj); i++ {
			if adj[i-1].To >= adj[i].To {
				t.Fatalf("Adj(%d) not strictly sorted: %v", v, adj)
			}
		}
		for _, a := range adj {
			e := g.Edge(a.Edge)
			if e.U != v && e.V != v {
				t.Fatalf("Adj(%d) references edge %v not incident to %d", v, e, v)
			}
			other := e.U
			if other == v {
				other = e.V
			}
			if a.To != other {
				t.Fatalf("Adj(%d) arc %+v disagrees with edge %v", v, a, e)
			}
		}
	}
	if degSum != 2*g.M() {
		t.Errorf("sum of degrees = %d, want %d", degSum, 2*g.M())
	}
}

// TestFromEdgesAllocationsIndependentOfN: FromEdges allocates the graph
// and its adjacency arrays, a fixed count whatever n is, because
// sorting each vertex's adjacency allocates nothing. The average is
// over ten runs, so a stray allocation of the runtime's own rounds
// away.
func TestFromEdgesAllocationsIndependentOfN(t *testing.T) {
	allocs := func(n, m int) float64 {
		g, err := RandomConnected(n, m, GenOptions{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		edges := slices.Clone(g.Edges())
		return testing.AllocsPerRun(10, func() {
			if _, err := FromEdges(n, edges); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(1024, 4096), allocs(4096, 16384); small != large {
		t.Errorf("FromEdges makes %.0f allocations at n = 1024 and %.0f at n = 4096", small, large)
	}
}

func TestLessIsStrictTotalOrder(t *testing.T) {
	g := Complete(6, GenOptions{Seed: 1, Weights: WeightsUnit})
	for i := 0; i < g.M(); i++ {
		if g.Less(i, i) {
			t.Fatalf("Less(%d,%d) = true", i, i)
		}
		for j := 0; j < g.M(); j++ {
			if i != j && g.Less(i, j) == g.Less(j, i) {
				t.Fatalf("Less not antisymmetric for %d,%d (unit weights)", i, j)
			}
		}
	}
}

func TestKeyLessMatchesLess(t *testing.T) {
	g := Complete(6, GenOptions{Seed: 2, Weights: WeightsUnit})
	for i := 0; i < g.M(); i++ {
		for j := 0; j < g.M(); j++ {
			a, b := g.Edge(i), g.Edge(j)
			if g.Less(i, j) != KeyLess(a.W, a.U, a.V, b.W, b.U, b.V) {
				t.Fatalf("KeyLess disagrees with Less for edges %d,%d", i, j)
			}
		}
	}
}

func TestGeneratorsShape(t *testing.T) {
	tests := []struct {
		name     string
		g        *Graph
		wantN    int
		wantM    int
		wantDiam int // -1 to skip
	}{
		{"path", Path(10, GenOptions{}), 10, 9, 9},
		{"ring", Ring(10, GenOptions{}), 10, 10, 5},
		{"grid", Grid(4, 5, GenOptions{}), 20, 31, 7},
		{"complete", Complete(8, GenOptions{}), 8, 28, 1},
		{"star", Star(9, GenOptions{}), 9, 8, 2},
		{"binarytree", BinaryTree(15, GenOptions{}), 15, 14, 6},
		{"lollipop", Lollipop(5, 6, GenOptions{}), 11, 16, 7},
		{"cylinder", Cylinder(3, 6, GenOptions{}), 18, 30, 5},
		{"single", Path(1, GenOptions{}), 1, 0, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.g.N() != tt.wantN {
				t.Errorf("N = %d, want %d", tt.g.N(), tt.wantN)
			}
			if tt.g.M() != tt.wantM {
				t.Errorf("M = %d, want %d", tt.g.M(), tt.wantM)
			}
			if !tt.g.Connected() {
				t.Error("not connected")
			}
			if tt.wantDiam >= 0 {
				if d := tt.g.Diameter(); d != tt.wantDiam {
					t.Errorf("Diameter = %d, want %d", d, tt.wantDiam)
				}
			}
		})
	}
}

func TestRandomConnected(t *testing.T) {
	for _, seed := range []uint64{0, 1, 2, 42} {
		g, err := RandomConnected(100, 300, GenOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if g.N() != 100 || g.M() != 300 {
			t.Fatalf("seed %d: got n=%d m=%d", seed, g.N(), g.M())
		}
		if !g.Connected() {
			t.Fatalf("seed %d: not connected", seed)
		}
	}
}

func TestRandomConnectedRejectsBadM(t *testing.T) {
	if _, err := RandomConnected(10, 8, GenOptions{}); err == nil {
		t.Error("m < n-1 accepted")
	}
	if _, err := RandomConnected(10, 46, GenOptions{}); err == nil {
		t.Error("m > n(n-1)/2 accepted")
	}
	if _, err := RandomConnected(0, 0, GenOptions{}); err == nil {
		t.Error("n = 0 accepted")
	}
}

func TestRandomConnectedDeterministic(t *testing.T) {
	a, err := RandomConnected(64, 200, GenOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomConnected(64, 200, GenOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Edges()) != len(b.Edges()) {
		t.Fatal("edge counts differ")
	}
	for i := range a.Edges() {
		if a.Edge(i) != b.Edge(i) {
			t.Fatalf("edge %d differs: %v vs %v", i, a.Edge(i), b.Edge(i))
		}
	}
}

func TestWeightModes(t *testing.T) {
	gU := Ring(20, GenOptions{Weights: WeightsUnit})
	for _, e := range gU.Edges() {
		if e.W != 1 {
			t.Fatalf("unit weights: got %d", e.W)
		}
	}
	gD := Ring(20, GenOptions{Weights: WeightsDistinct, Seed: 5})
	seen := make(map[int64]bool)
	for _, e := range gD.Edges() {
		if seen[e.W] {
			t.Fatalf("distinct weights: %d repeated", e.W)
		}
		seen[e.W] = true
	}
}

func TestKruskalEqualsPrim(t *testing.T) {
	cases := []*Graph{
		Path(12, GenOptions{Seed: 1}),
		Ring(13, GenOptions{Seed: 2}),
		Grid(5, 5, GenOptions{Seed: 3}),
		Complete(10, GenOptions{Seed: 4, Weights: WeightsUnit}),
		Lollipop(6, 8, GenOptions{Seed: 5, Weights: WeightsRandom}),
	}
	for i := 0; i < 10; i++ {
		g, err := RandomConnected(40, 100, GenOptions{Seed: uint64(i), Weights: WeightsRandom})
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, g)
	}
	for i, g := range cases {
		k, err := g.Kruskal()
		if err != nil {
			t.Fatalf("case %d: Kruskal: %v", i, err)
		}
		p, err := g.Prim()
		if err != nil {
			t.Fatalf("case %d: Prim: %v", i, err)
		}
		if len(k) != len(p) {
			t.Fatalf("case %d: |Kruskal|=%d |Prim|=%d", i, len(k), len(p))
		}
		for j := range k {
			if k[j] != p[j] {
				t.Fatalf("case %d: MSTs differ at %d: %d vs %d", i, j, k[j], p[j])
			}
		}
	}
}

func TestKruskalPrimProperty(t *testing.T) {
	// Property: for random graphs with arbitrary (tied) weights, the two
	// classical algorithms agree edge-for-edge (MST uniqueness under the
	// lexicographic order).
	f := func(seed uint64, nRaw, extraRaw uint16) bool {
		n := 2 + int(nRaw%60)
		maxExtra := n*(n-1)/2 - (n - 1)
		extra := 0
		if maxExtra > 0 {
			extra = int(extraRaw) % (maxExtra + 1)
		}
		g, err := RandomConnected(n, n-1+extra, GenOptions{Seed: seed, Weights: WeightsUnit})
		if err != nil {
			return false
		}
		k, err := g.Kruskal()
		if err != nil {
			return false
		}
		p, err := g.Prim()
		if err != nil {
			return false
		}
		if len(k) != n-1 || len(p) != n-1 {
			return false
		}
		for i := range k {
			if k[i] != p[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestKruskalDisconnected(t *testing.T) {
	b := NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 3, 1)
	g := b.MustGraph()
	if _, err := g.Kruskal(); err != ErrDisconnected {
		t.Errorf("Kruskal err = %v, want ErrDisconnected", err)
	}
	if _, err := g.Prim(); err != ErrDisconnected {
		t.Errorf("Prim err = %v, want ErrDisconnected", err)
	}
	if g.Connected() {
		t.Error("Connected() = true for disconnected graph")
	}
}

func TestBFSAndDiameter(t *testing.T) {
	g := Grid(3, 4, GenOptions{})
	dist := g.BFS(0)
	want := []int{0, 1, 2, 3, 1, 2, 3, 4, 2, 3, 4, 5}
	for v, d := range want {
		if dist[v] != d {
			t.Errorf("dist[%d] = %d, want %d", v, dist[v], d)
		}
	}
	if e := g.Eccentricity(0); e != 5 {
		t.Errorf("Eccentricity(0) = %d, want 5", e)
	}
	if d := g.DiameterEstimate(); d < 3 || d > 5 {
		t.Errorf("DiameterEstimate = %d, want within [D/2, D] = [3,5]... got out of range", d)
	}
}

func TestUnionFind(t *testing.T) {
	u := NewUnionFind(6)
	if u.Count() != 6 {
		t.Fatalf("Count = %d, want 6", u.Count())
	}
	if !u.Union(0, 1) || !u.Union(2, 3) || !u.Union(1, 2) {
		t.Fatal("Union of distinct sets returned false")
	}
	if u.Union(0, 3) {
		t.Error("Union within a set returned true")
	}
	if !u.Same(0, 3) || u.Same(0, 4) {
		t.Error("Same gives wrong answers")
	}
	if u.Count() != 3 {
		t.Errorf("Count = %d, want 3", u.Count())
	}
}

func TestTotalWeight(t *testing.T) {
	g := Path(4, GenOptions{Weights: WeightsDistinct, Seed: 9})
	mst, err := g.Kruskal()
	if err != nil {
		t.Fatal(err)
	}
	var want int64
	for _, e := range g.Edges() {
		want += e.W // a path's MST is the whole path
	}
	if got := g.TotalWeight(mst); got != want {
		t.Errorf("TotalWeight = %d, want %d", got, want)
	}
}

func TestPathMSTShape(t *testing.T) {
	g, err := PathMST(64, 128, GenOptions{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 64 || g.M() != 63+128 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if !g.Connected() {
		t.Fatal("not connected")
	}
	// The unique MST must be exactly the Hamiltonian path.
	mst, err := g.Kruskal()
	if err != nil {
		t.Fatal(err)
	}
	if len(mst) != 63 {
		t.Fatalf("MST has %d edges", len(mst))
	}
	for _, ei := range mst {
		e := g.Edge(ei)
		if e.V != e.U+1 {
			t.Errorf("MST edge %v is not a path edge", e)
		}
		if e.W != int64(e.U+1) {
			t.Errorf("path edge %v has wrong weight", e)
		}
	}
	// Chords must keep the diameter low relative to the path.
	if d := g.DiameterEstimate(); d > 24 {
		t.Errorf("diameter %d, want O(log n) with 2n chords", d)
	}
}

func TestPathMSTValidation(t *testing.T) {
	if _, err := PathMST(1, 0, GenOptions{}); err == nil {
		t.Error("n=1 accepted")
	}
	if _, err := PathMST(4, -1, GenOptions{}); err == nil {
		t.Error("negative extra accepted")
	}
	if _, err := PathMST(4, 100, GenOptions{}); err == nil {
		t.Error("too many chords accepted")
	}
	g, err := PathMST(4, 0, GenOptions{})
	if err != nil || g.M() != 3 {
		t.Errorf("PathMST(4,0): g=%v err=%v", g, err)
	}
}
