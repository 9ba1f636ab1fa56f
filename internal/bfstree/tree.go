// Package bfstree implements the auxiliary BFS tree τ of Elkin's
// algorithm (Section 3 of the paper) and the tree operations the
// algorithm composes on it: a synchronized broadcast, the pipelined
// convergecast that forwards only what its caller's filter keeps
// (Peleg, Ch. 3: the per-group minimum for the main algorithm, the
// cycle filter for Pipeline-MST), and the paper's interval-labelled
// routed downcast.
//
// Build elects no leader: the root is a designated vertex, exactly as
// in the paper ("an auxiliary BFS tree τ for the entire graph G rooted
// at a root vertex rt"). Building the tree costs O(D) rounds and O(m)
// messages and, as a by-product, gives every vertex the graph size n,
// the tree height H <= D, its preorder interval, and a common time
// origin T0 at which all vertices are released simultaneously.
//
// Build hands each vertex its Tree: its place in τ plus the record of
// the operation it is running. An operation (SyncBroadcast,
// PipelinedUpcast, RouteDown, Quiet) is a method that re-arms the
// record and parks on the one Resume that Build bound, so running an
// operation allocates nothing once the record's per-child buffers have
// grown. When it ends it continues with then, and its results stay in
// the record (Value, Results, Mine) until the next operation re-arms
// it. Build drops the operation state when it releases the vertex and
// the first operation after it allocates it again, so that the record
// stays small through the stages that run between τ's operations.
// Continuations take the live Context as a parameter and never keep
// one across parks (engines re-point a shared Context between wakes).
package bfstree

import (
	"cmp"
	"fmt"
	"slices"

	"congestmst/internal/congest"
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
	KindUp         uint8 = 9  // pipelined upcast item; A=group B=w C=u D=v
	KindUpDone     uint8 = 10 // end of upcast stream
	KindRoute      uint8 = 11 // routed downcast; A = target label, B,C payload
	KindRouteFlush uint8 = 12 // end of routed downcast
)

// op names the operation a Tree record is armed for.
type op uint8

const (
	opRecv  op = iota // one message from the parent (Build)
	opBcast           // SyncBroadcast below the root, until the payload arrives
	opQuiet           // silence until end, the tail of every aligned operation
	opUp              // PipelinedUpcast
	opUpEnd           // PipelinedUpcast: the end marker after a bandwidth refresh
	opRoute           // RouteDown
)

// Tree is one vertex's record on the BFS tree τ: where the vertex sits
// in τ and the state of the operation it is running. The place fields
// are local knowledge acquired during Build; only the root's knowledge
// of n and Height was redistributed by a broadcast.
type Tree struct {
	ParentPort int     // -1 at the root
	ChildPorts []int   // ascending port order
	ChildSizes []int64 // subtree size per child (parallel to ChildPorts)
	ChildIvs   [][2]int64
	Depth      int64
	Size       int64 // size of own subtree
	N          int64 // |V|
	Height     int64 // max depth of τ; Height <= D <= 2*Height
	Lo, Hi     int64 // own interval; Lo is the vertex's unique label
	T0         int64 // common round at which Build released all vertices
	Root       bool

	// wake is t.resume, bound once by Build: a method value built per
	// park would allocate per park.
	wake congest.Resume

	*state // nil from Build's release to the next operation
}

// state is the record of the operation a vertex runs on τ.
type state struct {
	// Value is the payload SyncBroadcast delivered here, Results the
	// items a PipelinedUpcast's root kept, in ascending order (empty
	// elsewhere), and Mine the pairs RouteDown addressed to this vertex.
	// All three hold until the next operation re-arms the record.
	Value   [3]int64
	Results []Item
	Mine    []Routed

	op      op
	kind    uint8 // opRecv, opBcast: the kind awaited from the parent
	flushed bool  // RouteDown: the end marker arrived, and end is set
	then    func(c congest.Context) congest.Step
	end     int64   // opQuiet, opRoute: the round the operation ends
	kids    []child // allocated by the first streaming operation

	// PipelinedUpcast: the caller's kinds and filter, and this vertex's
	// own items, sorted, with the count already consumed.
	up      Upcast
	own     []Item
	ownHead int
}

// child is the per-child state of the streaming operations, parallel
// to ChildPorts. Its buffers are kept across operations.
type child struct {
	items []Item   // PipelinedUpcast: the child's stream as received
	queue []Routed // RouteDown: the pairs routed to the child
	head  int      // items consumed, or queued pairs sent
	// done: the end marker of the child's stream arrived
	// (PipelinedUpcast), or went to the child (RouteDown).
	done bool
}

// childFor returns the index in ChildPorts of the child whose interval
// contains label, or -1.
func (t *Tree) childFor(label int64) int {
	// ChildIvs are disjoint and sorted by Lo (children were assigned
	// intervals in ascending port order, which is ascending Lo order).
	i, _ := slices.BinarySearchFunc(t.ChildIvs, label, func(iv [2]int64, l int64) int { return cmp.Compare(iv[1], l) })
	if i < len(t.ChildIvs) && t.ChildIvs[i][0] <= label {
		return i
	}
	return -1
}

// childAt returns the index in ChildPorts of the child on port, or
// fails the run.
func (t *Tree) childAt(c congest.Context, port int) int {
	i, ok := slices.BinarySearch(t.ChildPorts, port)
	if !ok {
		protocolf("vertex %d: port %d is not a child", c.ID(), port)
	}
	return i
}

// arm clears the previous operation's results and records the next
// operation and its continuation.
func (t *Tree) arm(o op, then func(c congest.Context) congest.Step) {
	if t.state == nil {
		t.state = new(state)
	}
	t.op, t.then = o, then
	t.Value, t.Results, t.Mine = [3]int64{}, t.Results[:0], t.Mine[:0]
}

// rearmKids empties every child's stream for a streaming operation,
// keeping the buffers; the first one allocates the children's slots.
func (t *Tree) rearmKids() {
	if t.kids == nil {
		t.kids = make([]child, len(t.ChildPorts))
	}
	for i := range t.kids {
		k := &t.kids[i]
		k.items, k.queue, k.head, k.done = k.items[:0], k.queue[:0], 0, false
	}
}

// resume is the continuation of every park of every operation.
func (t *Tree) resume(c congest.Context, msgs []congest.Inbound) congest.Step {
	switch t.op {
	case opRecv, opBcast:
		if len(msgs) != 1 || msgs[0].Msg.Kind != t.kind || msgs[0].Port != t.ParentPort {
			protocolf("vertex %d expected single kind-%d from port %d, got %v", c.ID(), t.kind, t.ParentPort, msgs)
		}
		m := msgs[0].Msg
		t.Value = [3]int64{m.A, m.B, m.C}
		if t.op == opRecv {
			return t.then(c)
		}
		for _, p := range t.ChildPorts {
			c.Send(p, m)
		}
		return t.quiet(c, m.D+t.Height+1)
	case opQuiet:
		if len(msgs) != 0 {
			protocolf("vertex %d received %d stray messages at round %d before round %d: %v",
				c.ID(), len(msgs), c.Round(), t.end, msgs)
		}
		if c.Round() < t.end {
			return congest.Until(t.end, t.wake)
		}
		return t.then(c)
	case opUp:
		for _, in := range msgs {
			t.take(c, in)
		}
		return t.pump(c)
	case opUpEnd:
		c.Send(t.ParentPort, congest.Message{Kind: t.up.Done})
		return t.then(c)
	default: // opRoute
		for _, in := range msgs {
			t.route(c, in)
		}
		return t.forward(c)
	}
}

// Quiet parks until the common round end, failing the run if anything
// arrives on the way, and continues with then. Every aligned operation
// ends with it.
func (t *Tree) Quiet(c congest.Context, end int64, then func(c congest.Context) congest.Step) congest.Step {
	t.arm(opQuiet, then)
	return t.quiet(c, end)
}

func (t *Tree) quiet(c congest.Context, end int64) congest.Step {
	if c.Round() > end {
		protocolf("vertex %d at round %d is past the alignment round %d", c.ID(), c.Round(), end)
	}
	t.op, t.end = opQuiet, end
	return t.resume(c, nil)
}

func protocolf(format string, args ...any) {
	panic(fmt.Sprintf("bfstree: protocol violation: "+format, args...))
}
