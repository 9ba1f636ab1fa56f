// Package forest implements the base-forest construction of Section 4
// of the paper: the Controlled-GHS procedure of [GKP98, KP98, Len16]
// that computes an (n/k, O(k))-MST forest for a parameter k in
// O(k·log* n) rounds using O(m·log k + n·log k·log* n) messages
// (Theorem 4.3).
//
// The procedure runs t = ceil(log2 k) phases. In phase i, fragments of
// at most 2^i vertices compute their minimum-weight outgoing edge
// (MWOE), the resulting candidate fragment forest is 3-coloured with
// Cole-Vishkin, a maximal matching is extracted in three colour steps,
// and fragments merge along matching edges (matched pairs) or their own
// MWOE (unmatched fragments, which by maximality always hit a matched or
// a large fragment). Lemma 4.1 bounds the fragment diameter after phase
// i by 6·2^(i+1); Lemma 4.2 grows the minimum fragment size to 2^i.
// Both are asserted by the test suite from Trace snapshots.
//
// All vertices must enter Program in the same round (as arranged by
// bfstree.Build); they all continue in the same round.
//
// Each vertex runs the phases as a stage machine over one record, the
// runner (runner.go): the stage enum says which step of the phase is
// under way, one step method ends a stage and enters the next, and
// every fragment-tree operation runs on the vertex's fragops.Tree.
// Per-port phase state is held in port-indexed slices, so every loop
// over ports runs in port order. A phase allocates only when the
// re-rooting step outgrows a port-list buffer.
//
// After the last phase the runner hands over, not copies: the State
// it gives the next stage (Borůvka over τ in internal/core, or
// Pipeline-MST) is its own fragment tree, its port-indexed neighbor
// ids and fragment ids, and one of its port slices reused as the MST
// mask. The runner itself is then garbage. PackEdge, State.PortOf and
// State.MSTPorts are the one way the next stages pack an edge into a
// message word, find its port and list the MST ports.
package forest

import (
	"fmt"
	"slices"

	"congestmst/internal/congest"
	"congestmst/internal/fragops"
	"congestmst/internal/mathx"
)

// Message kinds used by the forest construction (range 24-49; kinds
// 20-23 are the shared fragment-tree primitives in internal/fragops).
const (
	KindNbr       uint8 = 24 // neighbor update: A=fragID, B=vertexID, C=participate(0/1)
	KindAnnounce  uint8 = 25 // MWOE announcement across the chosen edge
	KindColor     uint8 = 26 // CV colour exchange across a fragment-graph edge: A=colour
	KindMatch     uint8 = 27 // matching proposal across a fragment-graph edge
	KindMatchedUp uint8 = 28 // "our fragment is now matched" cross update
	KindMergeIn   uint8 = 29 // unmatched fragment merges in over its MWOE
	KindNewFrag   uint8 = 30 // re-rooting broadcast: A=new fragment id
)

// State is the record Controlled-GHS hands to the next stage: one
// vertex's place in the base forest, as the phases left it. Nothing in
// it is a copy, and the runner that built it is released on hand-over,
// so the stage that continues on it owns it outright.
type State struct {
	// FragID is the identity of the fragment, defined as the identity
	// of its root vertex (Id(F) = Id(rt_F), Section 2).
	FragID int64
	// Tree is the vertex's record on its fragment tree, on which every
	// phase ran its argmin and relabel broadcast: Tree.Parent is the
	// parent port, -1 at the fragment root, and Tree.Children the child
	// ports, in no particular order. The next stage runs its own
	// fragment-tree operations on it.
	Tree *fragops.Tree
	// NbrVertexID maps each port to the neighbor's vertex identity,
	// learned during the neighbor-update steps (-1 if no phase ran).
	NbrVertexID []int64
	// NbrFrag maps each port to the neighbor's fragment identity as of
	// the last phase's neighbor update, stale wherever the last merge
	// moved the neighbor. The next stage refreshes it in place.
	NbrFrag []int64
	// MST marks each port whose edge is in the MST: the fragment-tree
	// ports on hand-over. The next stage extends it.
	MST []bool
}

// PackEdge packs the edge {a, b} into one message word, lower identity
// in the high half. Vertex identities fit in 32 bits.
func PackEdge(a, b int64) int64 {
	if a > b {
		a, b = b, a
	}
	return a<<32 | b
}

// PortOf returns the port of vertex self on the packed edge e, or -1
// if e is negative (no edge) or has no endpoint at self.
func (s *State) PortOf(self, e int64) int {
	if e < 0 {
		return -1
	}
	switch lo, hi := e>>32, e&0xffffffff; self {
	case lo:
		return slices.Index(s.NbrVertexID, hi)
	case hi:
		return slices.Index(s.NbrVertexID, lo)
	}
	return -1
}

// MSTPorts returns the ports MST marks, ascending: the vertex's part
// of the output ("every vertex knows which of its edges are in the
// MST", Section 2).
func (s *State) MSTPorts() []int {
	n := 0
	for _, in := range s.MST {
		if in {
			n++
		}
	}
	ports := make([]int, 0, n)
	for p, in := range s.MST {
		if in {
			ports = append(ports, p)
		}
	}
	return ports
}

// Trace captures per-phase snapshots for offline invariant checking
// (Lemmas 4.1 and 4.2). Each vertex writes only its own slot, so no
// locking is needed. Allocate with NewTrace.
type Trace struct {
	// Frag[i][v] is the fragment id of vertex v after phase i.
	Frag [][]int64
	// Parent[i][v] is the fragment-tree parent port of v after phase i
	// (-1 at fragment roots).
	Parent [][]int
	// StartFrag[i][v] is the fragment id of v at the start of phase i
	// (= Frag[i-1][v] for i > 0, singletons for i = 0).
	StartFrag [][]int64
	// Size[i][v] is the fragment size measured at the start of phase i,
	// meaningful only at vertices that were fragment roots then.
	Size [][]int64
	// Color[i][v] is the Cole-Vishkin colour after the colouring stage
	// of phase i, meaningful only at fragment roots of participating
	// fragments.
	Color [][]int64
	// Part[i][v] records participation (F'_i membership), meaningful
	// only at fragment roots at the start of phase i.
	Part [][]bool
}

// NewTrace allocates a trace for n vertices and the number of phases
// that Program with parameter k will execute.
func NewTrace(n, k int) *Trace {
	t := Phases(k)
	tr := &Trace{
		Frag:      make([][]int64, t),
		Parent:    make([][]int, t),
		StartFrag: make([][]int64, t),
		Size:      make([][]int64, t),
		Color:     make([][]int64, t),
		Part:      make([][]bool, t),
	}
	for i := 0; i < t; i++ {
		tr.Frag[i] = make([]int64, n)
		tr.Parent[i] = make([]int, n)
		tr.StartFrag[i] = make([]int64, n)
		tr.Size[i] = make([]int64, n)
		tr.Color[i] = make([]int64, n)
		tr.Part[i] = make([]bool, n)
	}
	return tr
}

// Phases returns the number of Controlled-GHS phases used for target
// fragment parameter k: ceil(log2 k).
func Phases(k int) int {
	if k < 2 {
		return 0
	}
	return mathx.Log2Ceil(k)
}

// heightBound is the per-phase bound on fragment-tree height used to
// size communication windows: by Lemma 4.1 the strong diameter of every
// fragment at the start of phase i is at most 6·2^i, and tree height is
// at most the diameter. The +2 absorbs the send/deliver round skew of
// window boundaries.
func heightBound(i int) int64 { return 6*(int64(1)<<uint(i)) + 2 }

// Program executes the Controlled-GHS construction with parameter k as
// a Step program (see internal/congest/task.go) and hands this vertex's
// view of the resulting (n/k, O(k))-MST forest to then. All vertices
// must enter Program in the same round; all continue in the same round.
// The fragment-tree edges held in State are edges of the unique MST.
func Program(c congest.Context, k int, trace *Trace,
	then func(c congest.Context, st *State) congest.Step) congest.Step {
	return newRunner(c, k, trace, then).startPhase(c)
}

func failf(format string, args ...any) {
	panic(fmt.Sprintf("forest: "+format, args...))
}
