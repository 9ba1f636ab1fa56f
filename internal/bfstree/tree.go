// Package bfstree implements the auxiliary BFS tree τ of Elkin's
// algorithm (Section 3 of the paper) and the classical tree primitives
// the algorithm composes: synchronized broadcast, convergecast,
// pipelined convergecast with per-group min-filtering (Peleg, Ch. 3),
// and the paper's interval-labelled routed downcast.
//
// BuildStep elects no leader: the root is a designated vertex, exactly
// as in the paper ("an auxiliary BFS tree τ for the entire graph G
// rooted at a root vertex rt"). Building the tree costs O(D) rounds and O(m)
// messages and, as a by-product, gives every vertex the graph size n,
// the tree height H <= D, its preorder interval, and a common time
// origin T0 at which all vertices are released simultaneously.
package bfstree

import (
	"fmt"
	"sort"
)

// Message kinds used on the BFS tree (range 1-19).
const (
	KindLevel      uint8 = 1  // BFS wave; A = sender depth
	KindAck        uint8 = 2  // "you are my parent"
	KindNack       uint8 = 3  // "you are not my parent"
	KindDone       uint8 = 4  // subtree complete; A = size, B = max depth
	KindInit       uint8 = 5  // A = n, B = height, C = T0
	KindInterval   uint8 = 6  // A = lo, B = hi
	KindBcast      uint8 = 7  // A,B,C payload, D = root send round
	KindConv       uint8 = 8  // A,B,C combined payload
	KindUp         uint8 = 9  // pipelined upcast item; A=group B=w C=u D=v
	KindUpDone     uint8 = 10 // end of upcast stream
	KindRoute      uint8 = 11 // routed downcast; A = target label, B,C payload
	KindRouteFlush uint8 = 12 // end of routed downcast
)

// Tree is one vertex's view of the BFS tree τ. All fields are local
// knowledge acquired during BuildStep; only the root's knowledge of n
// and Height was redistributed by a broadcast.
type Tree struct {
	Root       bool
	ParentPort int     // -1 at the root
	ChildPorts []int   // ascending port order
	ChildSizes []int64 // subtree size per child (parallel to ChildPorts)
	ChildIvs   [][2]int64
	Depth      int64
	Size       int64 // size of own subtree
	N          int64 // |V|
	Height     int64 // max depth of τ; Height <= D <= 2*Height
	Lo, Hi     int64 // own interval; Lo is the vertex's unique label
	T0         int64 // common round at which BuildStep released all vertices
}

// Label returns the vertex's unique routing label (the low endpoint of
// its interval).
func (t *Tree) Label() int64 { return t.Lo }

// childFor returns the index in ChildPorts of the child whose interval
// contains label, or -1.
func (t *Tree) childFor(label int64) int {
	// ChildIvs are disjoint and sorted by Lo (children were assigned
	// intervals in ascending port order, which is ascending Lo order).
	i := sort.Search(len(t.ChildIvs), func(i int) bool { return t.ChildIvs[i][1] >= label })
	if i < len(t.ChildIvs) && t.ChildIvs[i][0] <= label && label <= t.ChildIvs[i][1] {
		return i
	}
	return -1
}

func protocolf(format string, args ...any) {
	panic(fmt.Sprintf("bfstree: protocol violation: "+format, args...))
}
