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
// bfstree.BuildStep); they all continue in the same round.
package forest

import (
	"fmt"

	"congestmst/internal/congest"
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

// State is one vertex's knowledge of the constructed base forest.
type State struct {
	// FragID is the identity of the fragment, defined as the identity
	// of its root vertex (Id(F) = Id(rt_F), Section 2).
	FragID int64
	// ParentPort is the port of the fragment-tree parent, -1 at the
	// fragment root.
	ParentPort int
	// ChildPorts are the fragment-tree child ports, ascending.
	ChildPorts []int
	// Phases is the number of Controlled-GHS phases executed.
	Phases int
	// NbrVertexID maps each port to the neighbor's vertex identity,
	// learned during the neighbor-update steps.
	NbrVertexID []int64
}

// TreeDegree returns the number of fragment-tree edges at this vertex.
func (s *State) TreeDegree() int {
	d := len(s.ChildPorts)
	if s.ParentPort >= 0 {
		d++
	}
	return d
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
	r := newRunner(c, k, trace)
	var loop func(c congest.Context, i int) congest.Step
	loop = func(c congest.Context, i int) congest.Step {
		if i >= r.t {
			return then(c, &State{
				FragID:      r.fragID,
				ParentPort:  r.parent,
				ChildPorts:  append([]int(nil), r.children...),
				Phases:      r.t,
				NbrVertexID: r.nbrVid,
			})
		}
		return r.phase(c, i, func(c congest.Context) congest.Step {
			return loop(c, i+1)
		})
	}
	return loop(c, 0)
}

func failf(format string, args ...any) {
	panic(fmt.Sprintf("forest: "+format, args...))
}
