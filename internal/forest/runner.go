package forest

import (
	"congestmst/internal/congest"
	"congestmst/internal/fragops"
)

// sentinel is an impossible convergecast key: larger than every real
// (weight, id, id) key.
var sentinel = fragops.Sentinel

// runner is one vertex's state machine for the Controlled-GHS phases:
// plain data plus the stage it is in. Its only continuation and window
// handler are r.step and r.recv (phase.go), bound once into next and
// handle by newRunner, and its fragment-tree operations run on one
// fragops.Tree record, so entering a stage allocates nothing. After
// the last phase its tree, nbrVid, nbrFrag and treeCross become the
// State it hands over (handOver).
type runner struct {
	t     int // phases to run: Phases(k)
	trace *Trace
	done  func(c congest.Context, st *State) congest.Step

	// The fragment tree this vertex belongs to (tree.Parent is -1 at
	// the root) and the record of its current tree operation.
	tree *fragops.Tree

	// Persistent fragment state.
	fragID int64
	nbrVid []int64

	// Per-phase neighbor knowledge (refreshed each phase).
	nbrFrag []int64
	nbrPart []bool

	// Where the program is: the phase i, its window height bound, the
	// stage within it, the Cole-Vishkin step and the colour class of
	// the matching.
	phase   int
	h       int64
	stage   stage
	cvIdx   int
	matchCC int64

	next   func(c congest.Context) congest.Step
	handle func(c congest.Context, in congest.Inbound)

	// Root-only knowledge for the current phase.
	size, height int64
	participate  bool
	hasMWOE      bool
	parentPart   bool // the MWOE target fragment participates
	mutualWinner bool
	color        int64
	matched      bool
	roleSelector bool
	candExists   bool
	candRoot     bool // the candidate argmin reported this vertex as a selecting root

	// Border-vertex state for the current phase. The port-indexed
	// slices are allocated once and cleared in place each phase.
	isOwner     bool // this vertex holds the fragment's MWOE
	ownerPort   int
	bestPort    int    // this vertex's best local outgoing port
	foreign     []bool // announce ports: participating child fragments
	childMat    []bool // the child fragment across the port is matched
	treeCross   []bool // cross ports that became tree edges this phase
	parentCol   int64  // colour received from the parent fragment
	childColMin int64  // least colour received from a child fragment
	mutual      bool   // the announce across ownerPort was mutual
	selected    bool   // a match proposal arrived on ownerPort
	nbrGot      int    // neighbor updates heard this phase
	treePorts   []int  // every tree port during the re-rooting broadcast

	// Argmin winner pointers: -2 self, -1 none, >=0 child port.
	winTmp  int
	winMWOE int

	fragSelecting bool
	fragStatus    int64
	newFragSeen   bool
}

// Fragment statuses broadcast at the end of the matching stage.
const (
	statusUnmatched int64 = 0 // merge out along the MWOE
	statusSelector  int64 = 1 // centre of a matched pair: initiator
	statusSelected  int64 = 2 // absorbed by the selecting parent
	statusIsolated  int64 = 3 // no outgoing edge: initiator, no merge
)

func newRunner(c congest.Context, k int, trace *Trace,
	done func(c congest.Context, st *State) congest.Step) *runner {
	deg := c.Degree()
	r := &runner{
		t:         Phases(k),
		trace:     trace,
		done:      done,
		tree:      fragops.NewTree(-1, nil),
		fragID:    int64(c.ID()),
		nbrVid:    make([]int64, deg),
		nbrFrag:   make([]int64, deg),
		nbrPart:   make([]bool, deg),
		foreign:   make([]bool, deg),
		childMat:  make([]bool, deg),
		treeCross: make([]bool, deg),
	}
	r.next, r.handle = r.step, r.recv
	for p := range r.nbrVid {
		r.nbrVid[p] = -1
	}
	return r
}

func (r *runner) isRoot() bool { return r.tree.Parent == -1 }

// participateThreshold is the size bound for phase i: fragments of at
// most 2^i vertices join F'_i. Size bounds diameter from above, so the
// paper's diameter criterion and Lemmas 4.1/4.2 carry over (a fragment
// smaller than 2^i has diameter below 2^i and must participate).
func participateThreshold(i int) int64 { return int64(1) << uint(i) }
