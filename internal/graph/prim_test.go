package graph

import (
	"container/heap"
	"sort"
)

// primItem is a heap entry: candidate edge ei reaching vertex to.
type primItem struct {
	ei int
	to int
}

type primHeap struct {
	g     *Graph
	items []primItem
}

func (h *primHeap) Len() int { return len(h.items) }
func (h *primHeap) Less(i, j int) bool {
	return h.g.Less(h.items[i].ei, h.items[j].ei)
}
func (h *primHeap) Swap(i, j int) { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *primHeap) Push(x any)    { h.items = append(h.items, x.(primItem)) }
func (h *primHeap) Pop() any {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}

// Prim returns the indices of the unique MST's edges in increasing order
// of index, grown from vertex 0: the tests' independent cross-check of
// Kruskal.
func (g *Graph) Prim() ([]int, error) {
	if g.n == 0 {
		return nil, nil
	}
	inTree := make([]bool, g.n)
	inTree[0] = true
	h := &primHeap{g: g}
	for _, a := range g.Adj(0) {
		heap.Push(h, primItem{ei: a.Edge, to: a.To})
	}
	mst := make([]int, 0, g.n-1)
	for h.Len() > 0 && len(mst) < g.n-1 {
		it := heap.Pop(h).(primItem)
		if inTree[it.to] {
			continue
		}
		inTree[it.to] = true
		mst = append(mst, it.ei)
		for _, a := range g.Adj(it.to) {
			if !inTree[a.To] {
				heap.Push(h, primItem{ei: a.Edge, to: a.To})
			}
		}
	}
	if g.n > 1 && len(mst) != g.n-1 {
		return nil, ErrDisconnected
	}
	sort.Ints(mst)
	return mst, nil
}
