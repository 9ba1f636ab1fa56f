// Package graph provides the weighted undirected graphs used as inputs to
// the distributed MST algorithms, deterministic workload generators, and
// sequential ground-truth MST algorithms (Kruskal, Prim) for verification.
//
// Vertices are identified by the integers 0..N-1; these double as the
// unique vertex identities Id(v) of the CONGEST model. Edge weights are
// int64 and need not be distinct: every comparison goes through the
// lexicographic key (w, min(u,v), max(u,v)), which makes the MST unique
// (the standard perturbation argument, see Peleg, Ch. 5).
package graph

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
)

// Edge is an undirected weighted edge. U < V is not required at
// construction time; the graph normalizes endpoints on Finish.
type Edge struct {
	U, V int
	W    int64
}

// Arc is one directed half of an edge as seen from a vertex's adjacency
// list. Port p of vertex v corresponds to Adj(v)[p].
type Arc struct {
	To   int // neighbor vertex
	Edge int // index into Edges()
}

// Graph is an immutable weighted undirected graph. Build one with a
// Builder or a generator from this package.
//
// Adjacency is stored flat in CSR form (one arc array plus n+1
// offsets) rather than as a slice of per-vertex slices, so a
// million-vertex graph costs two allocations for its adjacency instead
// of n+2.
type Graph struct {
	n     int
	edges []Edge
	arcs  []Arc   // flat adjacency, vertex v owns arcs[off[v]:off[v+1]]
	off   []int64 // len n+1

	csrOnce sync.Once
	csr     *CSR
}

// Builder accumulates edges and produces an immutable Graph. A builder
// is single-use: Graph consumes it.
type Builder struct {
	n        int
	edges    []Edge
	consumed bool
}

// NewBuilder returns a builder for a graph on n vertices.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// AddEdge appends the undirected edge {u, v} with weight w.
func (b *Builder) AddEdge(u, v int, w int64) {
	if b.consumed {
		panic("graph: Builder used after Graph")
	}
	b.edges = append(b.edges, Edge{U: u, V: v, W: w})
}

// Graph validates the accumulated edges and returns the immutable graph.
// It rejects self-loops, out-of-range endpoints, and duplicate edges.
// The builder is consumed: it takes no copy of the edge list, and any
// further use of the builder is an error.
func (b *Builder) Graph() (*Graph, error) {
	if b.consumed {
		return nil, errors.New("graph: Builder already consumed by a previous Graph call")
	}
	b.consumed = true
	edges := b.edges
	b.edges = nil
	return FromEdges(b.n, edges)
}

// FromEdges builds the immutable graph over vertices 0..n-1 from edges,
// taking ownership of the slice (endpoints are normalized to U <= V in
// place). It performs the same validation as Builder.Graph but without
// any O(m) temporaries beyond the adjacency itself: duplicate edges are
// detected from the sorted adjacency instead of a hash map.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	g := &Graph{n: n, edges: edges}
	for i := range g.edges {
		e := &g.edges[i]
		if e.U == e.V {
			return nil, fmt.Errorf("graph: self-loop at vertex %d", e.U)
		}
		if e.U < 0 || e.U >= g.n || e.V < 0 || e.V >= g.n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, g.n)
		}
		if e.U > e.V {
			e.U, e.V = e.V, e.U
		}
	}
	// Counting pass, then a placement pass into the flat arc array.
	g.off = make([]int64, g.n+1)
	for _, e := range g.edges {
		g.off[e.U+1]++
		g.off[e.V+1]++
	}
	for v := 0; v < g.n; v++ {
		g.off[v+1] += g.off[v]
	}
	g.arcs = make([]Arc, 2*len(g.edges))
	cursor := make([]int64, g.n)
	copy(cursor, g.off[:g.n])
	for i, e := range g.edges {
		g.arcs[cursor[e.U]] = Arc{To: e.V, Edge: i}
		cursor[e.U]++
		g.arcs[cursor[e.V]] = Arc{To: e.U, Edge: i}
		cursor[e.V]++
	}
	// Deterministic port order: neighbors sorted by vertex id. A
	// duplicate edge shows up as two equal neighbors side by side.
	for v := 0; v < g.n; v++ {
		seg := g.arcs[g.off[v]:g.off[v+1]]
		slices.SortFunc(seg, func(a, b Arc) int { return cmp.Compare(a.To, b.To) })
		for i := 1; i < len(seg); i++ {
			if seg[i].To == seg[i-1].To {
				return nil, fmt.Errorf("graph: duplicate edge (%d,%d)", min(v, seg[i].To), max(v, seg[i].To))
			}
		}
	}
	return g, nil
}

// MustGraph is Graph but panics on error; intended for tests and
// generators whose construction cannot fail.
func (b *Builder) MustGraph() *Graph {
	g, err := b.Graph()
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// Edges returns the edge list. The caller must not modify it.
func (g *Graph) Edges() []Edge { return g.edges }

// Edge returns the i-th edge.
func (g *Graph) Edge(i int) Edge { return g.edges[i] }

// Adj returns the adjacency list of v, sorted by neighbor id. The caller
// must not modify it.
func (g *Graph) Adj(v int) []Arc { return g.arcs[g.off[v]:g.off[v+1]] }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return int(g.off[v+1] - g.off[v]) }

// Less reports whether edge i is strictly lighter than edge j under the
// unique lexicographic order (w, u, v). It is a strict total order as long
// as i != j refer to distinct edges.
func (g *Graph) Less(i, j int) bool {
	a, b := g.edges[i], g.edges[j]
	if a.W != b.W {
		return a.W < b.W
	}
	if a.U != b.U {
		return a.U < b.U
	}
	return a.V < b.V
}

// KeyLess compares two edges given as explicit (w, u, v) keys, using the
// same total order as Less. It is what remote vertices use to compare
// candidate edges received in messages.
func KeyLess(w1 int64, u1, v1 int, w2 int64, u2, v2 int) bool {
	if w1 != w2 {
		return w1 < w2
	}
	if u1 != u2 {
		return u1 < u2
	}
	return v1 < v2
}

// Connected reports whether the graph is connected (true for N <= 1).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	dist := g.BFS(0)
	for _, d := range dist {
		if d < 0 {
			return false
		}
	}
	return true
}

// ErrDisconnected is returned by algorithms that require connectivity.
var ErrDisconnected = errors.New("graph: not connected")

// TotalWeight sums the weights of the edges whose indices are in set.
func (g *Graph) TotalWeight(set []int) int64 {
	var total int64
	for _, i := range set {
		total += g.edges[i].W
	}
	return total
}
