// Package fragops provides window-scheduled communication primitives on
// MST-fragment trees: convergecast, argmin with winner pointers,
// broadcast, winner-path downcast, and single-path upcast. They are
// shared by the Controlled-GHS construction (internal/forest) and the
// Boruvka-over-τ stage of the main algorithm (internal/core).
//
// All primitives are driven by absolute round deadlines: every vertex
// of the graph enters the same primitive in the same round with a
// common `end`, and continues exactly at round `end`. A vertex whose fragment is
// not active simply drains its (empty) window, so global alignment is
// preserved without any coordination traffic.
//
// Each vertex keeps one Tree: its place in the fragment tree plus the
// record of the operation it is running. An operation is a method that
// re-arms the record and returns a congest.Window Step (see
// internal/congest/task.go) whose handler and finish step are method
// values NewTree bound once, so running an operation allocates nothing.
// At round end the operation continues with then, and its results stay
// in the record (Value, Root, Received, Target) until the next
// operation re-arms it. then and the winner pointer are dropped, so the
// record keeps nothing of the program that last used it alive: the
// Controlled-GHS runner hands each vertex's Tree on to the stage after
// it (forest.State). Handlers and continuations take the live
// Context as a parameter and never keep one across parks (engines
// re-point a shared Context between wakes).
package fragops

import (
	"fmt"

	"congestmst/internal/congest"
)

// Message kinds used on fragment trees (range 20-23, shared with the
// forest package's historical numbering).
const (
	KindConv   uint8 = 20 // convergecast payload: A,B,C
	KindBcast  uint8 = 21 // broadcast payload: A,B,C
	KindWinner uint8 = 22 // downcast along argmin winner pointers: A,B,C
	KindUpPath uint8 = 23 // single-path upcast to the fragment root: A,B,C
)

// Sentinel is an impossible argmin key, larger than any real
// (weight, id, id) key.
var Sentinel = [3]int64{1<<63 - 1, 1<<63 - 1, 1<<63 - 1}

// KeyLess compares two 3-word keys lexicographically.
func KeyLess(a, b [3]int64) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	if a[1] != b[1] {
		return a[1] < b[1]
	}
	return a[2] < b[2]
}

// SizeHeight is the Converge combine that measures a fragment: start
// each vertex at (1, 0, 0) and the root ends with (size, height, 0).
func SizeHeight(acc, child [3]int64) [3]int64 {
	acc[0] += child[0]
	if child[1]+1 > acc[1] {
		acc[1] = child[1] + 1
	}
	return acc
}

// op names the operation a Tree record is armed for.
type op uint8

const (
	opDrain     op = iota // nothing may arrive: an inactive fragment, or a broadcasting root
	opConverge            // Converge
	opArgmin              // Argmin
	opBroadcast           // Broadcast below the root
	opDowncast            // WinnerDowncast
	opUpPath              // UpPath
)

// Tree is one vertex's fragment-tree record: where the vertex sits in
// its fragment tree and the state of the operation it is running.
// Build it once per vertex with NewTree; every operation re-arms it.
type Tree struct {
	// Parent is the fragment-tree parent port, -1 at the root, and
	// Children the child ports. The owner may change them between
	// operations, never during one.
	Parent   int
	Children []int

	// Value is the last operation's result: the accumulator of Converge
	// and Argmin (combined at the root, partial elsewhere), or the
	// payload Broadcast, WinnerDowncast and UpPath delivered here. Root
	// (Converge, Argmin), Received (Broadcast, UpPath) and Target
	// (WinnerDowncast) qualify it. All four hold until the next
	// operation re-arms the record.
	Value    [3]int64
	Root     bool
	Received bool
	Target   bool

	op      op
	pend    int  // children yet to report (Converge, Argmin)
	sent    bool // the accumulator went to the parent (Converge, Argmin)
	active  bool // a broadcast must arrive (Broadcast)
	combine func(acc, child [3]int64) [3]int64
	winner  *int // the argmin winner pointer (Argmin, WinnerDowncast)
	then    func(c congest.Context) congest.Step

	// handle and finish are t.recv and t.done, bound once by NewTree:
	// a method value built per operation would allocate per operation.
	handle func(c congest.Context, in congest.Inbound)
	finish func(c congest.Context) congest.Step
}

// NewTree builds a vertex's record for a fragment tree with the given
// parent port (-1 at the root) and child ports.
func NewTree(parent int, children []int) *Tree {
	t := &Tree{Parent: parent, Children: children}
	t.handle, t.finish = t.recv, t.done
	return t
}

// Converge runs one fragment-internal convergecast inside [now, end):
// every vertex of an active fragment contributes own; combine folds a
// child's reported value into the accumulator. At end the fragment
// root holds the combined value in Value with Root set; everyone else
// holds its partial value (own, if inactive) with Root clear.
func (t *Tree) Converge(c congest.Context, end int64, active bool, own [3]int64,
	combine func(acc, child [3]int64) [3]int64, then func(c congest.Context) congest.Step) congest.Step {
	t.arm(own, then)
	if !active {
		return t.window(c, opDrain, end)
	}
	t.combine = combine
	return t.gather(c, opConverge, end)
}

// Argmin is Converge specialised to lexicographic minimisation. It
// records a winner pointer into *winner: -2 if this vertex's own key
// won locally, -1 if no candidate reached here, or the child port whose
// subtree supplied the local minimum. A vertex with no candidate passes
// the Sentinel, which is also the Value of an inactive vertex.
func (t *Tree) Argmin(c congest.Context, end int64, active bool, own [3]int64, winner *int,
	then func(c congest.Context) congest.Step) congest.Step {
	*winner = -1
	if own != Sentinel {
		*winner = -2
	}
	t.arm(Sentinel, then)
	if !active {
		return t.window(c, opDrain, end)
	}
	t.Value, t.winner = own, winner
	return t.gather(c, opArgmin, end)
}

// gather opens a convergecast window over the accumulator in Value.
func (t *Tree) gather(c congest.Context, o op, end int64) congest.Step {
	t.Root = t.Parent < 0
	t.pend, t.sent = len(t.Children), false
	t.sendUp(c)
	return t.window(c, o, end)
}

// sendUp reports the accumulator to the parent once every child has.
func (t *Tree) sendUp(c congest.Context) {
	if t.pend == 0 && t.Parent >= 0 && !t.sent {
		t.sent = true
		c.Send(t.Parent, congest.Message{Kind: KindConv, A: t.Value[0], B: t.Value[1], C: t.Value[2]})
	}
}

// Broadcast distributes a 3-word payload from the fragment root inside
// [now, end). Value then holds the payload and Received whether it
// arrived (true everywhere in active fragments).
func (t *Tree) Broadcast(c congest.Context, end int64, active bool, own [3]int64,
	then func(c congest.Context) congest.Step) congest.Step {
	t.arm([3]int64{}, then)
	if active && t.Parent < 0 {
		t.Value, t.Received = own, true
		t.sendDown(c, own)
		return t.window(c, opDrain, end)
	}
	t.active = active
	return t.window(c, opBroadcast, end)
}

func (t *Tree) sendDown(c congest.Context, m [3]int64) {
	for _, ch := range t.Children {
		c.Send(ch, congest.Message{Kind: KindBcast, A: m[0], B: m[1], C: m[2]})
	}
}

// WinnerDowncast follows argmin winner pointers from the fragment root
// to the winning vertex inside [now, end). initiate must hold only at
// roots of fragments that start a downcast; winner points at this
// vertex's recorded pointer, read as the downcast passes. At end Target
// reports whether this vertex is the target, and Value holds the
// payload there.
func (t *Tree) WinnerDowncast(c congest.Context, end int64, initiate bool, winner *int, payload [3]int64,
	then func(c congest.Context) congest.Step) congest.Step {
	t.arm([3]int64{}, then)
	t.winner = winner
	if initiate {
		switch w := *winner; {
		case w == -2:
			t.Target, t.Value = true, payload
		case w >= 0:
			c.Send(w, congest.Message{Kind: KindWinner, A: payload[0], B: payload[1], C: payload[2]})
		default:
			failf("vertex %d: downcast initiated with no winner", c.ID())
		}
	}
	return t.window(c, opDowncast, end)
}

// UpPath sends a 3-word payload from one origin vertex up the fragment
// tree to the root inside [now, end). At end the root has Received set,
// with the payload in Value, if an origin existed in its fragment.
func (t *Tree) UpPath(c congest.Context, end int64, origin bool, payload [3]int64,
	then func(c congest.Context) congest.Step) congest.Step {
	t.arm([3]int64{}, then)
	if origin {
		t.deliverUp(c, payload)
	}
	return t.window(c, opUpPath, end)
}

func (t *Tree) deliverUp(c congest.Context, m [3]int64) {
	if t.Parent < 0 {
		if t.Received {
			failf("vertex %d: two UpPath payloads in one fragment", c.ID())
		}
		t.Received, t.Value = true, m
		return
	}
	c.Send(t.Parent, congest.Message{Kind: KindUpPath, A: m[0], B: m[1], C: m[2]})
}

// arm clears the previous operation's results, starting Value at v,
// and records the continuation.
func (t *Tree) arm(v [3]int64, then func(c congest.Context) congest.Step) {
	t.Value, t.Root, t.Received, t.Target = v, false, false, false
	t.then = then
}

// window enters operation o until round end.
func (t *Tree) window(c congest.Context, o op, end int64) congest.Step {
	t.op = o
	return congest.Window(c, end, t.handle, t.finish)
}

// recv is the window handler of every operation.
func (t *Tree) recv(c congest.Context, in congest.Inbound) {
	m := [3]int64{in.Msg.A, in.Msg.B, in.Msg.C}
	switch t.op {
	case opDrain:
		failf("vertex %d: unexpected kind %d on port %d at round %d",
			c.ID(), in.Msg.Kind, in.Port, c.Round())
	case opConverge:
		if in.Msg.Kind != KindConv || !t.isChild(in.Port) {
			failf("vertex %d: kind %d from port %d during convergecast", c.ID(), in.Msg.Kind, in.Port)
		}
		t.Value = t.combine(t.Value, m)
		t.pend--
		t.sendUp(c)
	case opArgmin:
		if in.Msg.Kind != KindConv || !t.isChild(in.Port) {
			failf("vertex %d: kind %d from port %d during argmin", c.ID(), in.Msg.Kind, in.Port)
		}
		if KeyLess(m, t.Value) {
			t.Value = m
			*t.winner = in.Port
		}
		t.pend--
		t.sendUp(c)
	case opBroadcast:
		if in.Msg.Kind != KindBcast || in.Port != t.Parent || t.Received {
			failf("vertex %d: kind %d from port %d during broadcast", c.ID(), in.Msg.Kind, in.Port)
		}
		t.Received, t.Value = true, m
		t.sendDown(c, m)
	case opDowncast:
		if in.Msg.Kind != KindWinner || in.Port != t.Parent {
			failf("vertex %d: kind %d from port %d during winner downcast", c.ID(), in.Msg.Kind, in.Port)
		}
		switch w := *t.winner; {
		case w == -2:
			t.Target, t.Value = true, m
		case w >= 0:
			c.Send(w, in.Msg)
		default:
			failf("vertex %d: winner downcast hit a dead end", c.ID())
		}
	case opUpPath:
		if in.Msg.Kind != KindUpPath || !t.isChild(in.Port) {
			failf("vertex %d: kind %d from port %d during UpPath", c.ID(), in.Msg.Kind, in.Port)
		}
		t.deliverUp(c, m)
	}
}

// done is the finish step of every operation: it checks the window
// was long enough and continues with then. It drops the operation's
// references into its caller first, so a record handed to another
// owner does not keep the last caller alive.
func (t *Tree) done(c congest.Context) congest.Step {
	switch t.op {
	case opConverge:
		if t.pend != 0 {
			failf("vertex %d: convergecast missed %d children (window too small)", c.ID(), t.pend)
		}
	case opArgmin:
		if t.pend != 0 {
			failf("vertex %d: argmin missed %d children", c.ID(), t.pend)
		}
	case opBroadcast:
		if t.active && !t.Received {
			failf("vertex %d: broadcast never arrived", c.ID())
		}
	}
	then := t.then
	t.then, t.winner = nil, nil
	return then(c)
}

func (t *Tree) isChild(p int) bool {
	for _, c := range t.Children {
		if c == p {
			return true
		}
	}
	return false
}

func failf(format string, args ...any) {
	panic(fmt.Sprintf("fragops: "+format, args...))
}
