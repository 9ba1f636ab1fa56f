package forest

import (
	"sort"

	"congestmst/internal/congest"
	"congestmst/internal/fragops"
)

// sentinel is an impossible convergecast key: larger than every real
// (weight, id, id) key.
var sentinel = fragops.Sentinel

// cont is a phase-program continuation: the next Step once a stage has
// finished. Stages receive the live congest.Context as a parameter and
// never store one in the runner — engines re-point a shared Context
// between wakes, so captured Contexts go stale.
type cont = func(c congest.Context) congest.Step

// runner is one vertex's state machine for the Controlled-GHS phases.
// It is plain data; every message handler lives in the Step-form
// methods of phase.go.
type runner struct {
	k, t  int
	trace *Trace

	// Persistent fragment state.
	fragID   int64
	parent   int   // fragment-tree parent port, -1 at the root
	children []int // fragment-tree child ports
	nbrVid   []int64

	// Per-phase neighbor knowledge (refreshed each phase).
	nbrFrag []int64
	nbrPart []bool

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

	// Border-vertex state for the current phase. The maps are allocated
	// once and cleared in place each phase: a phase reset at 10^6
	// vertices × O(log k) phases used to be the top allocation site of
	// an Elkin run (four fresh maps per vertex per phase).
	isOwner   bool // this vertex holds the fragment's MWOE
	ownerPort int
	bestPort  int           // this vertex's best local outgoing port
	foreign   map[int]bool  // announce ports: participating child fragments
	childMat  map[int]bool  // child fragment across port is matched
	treeCross map[int]bool  // cross ports that became tree edges this phase
	parentCol int64         // colour received from the parent fragment
	childCol  map[int]int64 // colours received from child fragments
	sendUpd   bool          // owner: send the matched-update cross
	selBorder bool          // this vertex performs the match selection

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

func newRunner(c congest.Context, k int, trace *Trace) *runner {
	deg := c.Degree()
	r := &runner{
		k:         k,
		t:         Phases(k),
		trace:     trace,
		fragID:    int64(c.ID()),
		parent:    -1,
		nbrVid:    make([]int64, deg),
		nbrFrag:   make([]int64, deg),
		nbrPart:   make([]bool, deg),
		foreign:   make(map[int]bool),
		childMat:  make(map[int]bool),
		treeCross: make(map[int]bool),
		childCol:  make(map[int]int64),
	}
	for p := range r.nbrVid {
		r.nbrVid[p] = -1
	}
	return r
}

func (r *runner) isRoot() bool { return r.parent == -1 }

func (r *runner) isChildPort(p int) bool {
	for _, c := range r.children {
		if c == p {
			return true
		}
	}
	return false
}

func keyLess(a, b [3]int64) bool { return fragops.KeyLess(a, b) }

// sortedPorts returns the keys of a port-keyed map in ascending order.
// Phase state (foreign, childMat, treeCross, childCol) is map-backed,
// and Go's map iteration order is random per run; every loop whose
// effects escape — message sends, treePorts/children construction —
// must go through here so runs stay bit-reproducible (see mstlint's
// detrange analyzer).
func sortedPorts[V any](m map[int]V) []int {
	ports := make([]int, 0, len(m))
	for p := range m {
		ports = append(ports, p)
	}
	sort.Ints(ports)
	return ports
}

// participateThreshold is the size bound for phase i: fragments of at
// most 2^i vertices join F'_i. Size bounds diameter from above, so the
// paper's diameter criterion and Lemmas 4.1/4.2 carry over (a fragment
// smaller than 2^i has diameter below 2^i and must participate).
func participateThreshold(i int) int64 { return int64(1) << uint(i) }
