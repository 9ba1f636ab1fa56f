package graph

import "sort"

// MSF returns the indices of the unique minimum spanning forest's
// edges in increasing order of index: the MST of each connected
// component. Unlike Kruskal it accepts disconnected graphs — the
// incremental-update layer and its oracle need the forest, because a
// deletion stream can legitimately split components. The forest is
// unique because Less is a strict total order on edges.
func (g *Graph) MSF() []int {
	order := make([]int, g.M())
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return g.Less(order[a], order[b]) })
	uf := NewUnionFind(g.n)
	msf := make([]int, 0, max(0, g.n-1))
	for _, ei := range order {
		e := g.edges[ei]
		if uf.Union(e.U, e.V) {
			msf = append(msf, ei)
		}
	}
	sort.Ints(msf)
	return msf
}

// Kruskal returns the indices of the unique MST's edges in increasing
// order of index. It returns ErrDisconnected if the graph is not
// connected (and N > 1). The MST is unique because Less is a strict
// total order on edges.
func (g *Graph) Kruskal() ([]int, error) {
	mst := g.MSF()
	if g.n > 1 && len(mst) != g.n-1 {
		return nil, ErrDisconnected
	}
	return mst, nil
}
