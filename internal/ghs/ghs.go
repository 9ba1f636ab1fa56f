// Package ghs implements the classical distributed MST algorithm of
// Gallager, Humblet and Spira (GHS'83) as the paper's historical
// baseline: O(n log n) time and O(m + n log n) messages.
//
// The port follows the original pseudocode: fragments carry a (level,
// name) pair, where the name is the identity of the fragment's core
// edge; vertices test their minimum basic edge against the fragment
// name, reports converge on the core, and fragments merge or absorb
// via Connect. GHS is an asynchronous algorithm, so running it under
// the synchronous engine (with per-port output queues and message
// requeueing for its wait conditions) is just one admissible execution.
//
// The protocol runs as a congest.Fiber (fiber.go) around the node
// methods below.
//
// Deviation from the clean-network model: the original algorithm
// assumes distinct edge weights. We use the repository-wide unique key
// (w, min id, max id), which requires endpoints to learn neighbor
// identities first; the single exchange that does so costs one round
// and 2m messages and is included in the measured complexity.
package ghs

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"congestmst/internal/congest"
)

// Message kinds (range 80-99).
const (
	KindHello      uint8 = 80 // neighbor identity exchange: A = vertex id
	KindConnect    uint8 = 81 // A = level
	KindInitiate   uint8 = 82 // A = level, B = name w, C = name edge, D = state
	KindTest       uint8 = 83 // A = level, B = name w, C = name edge
	KindAccept     uint8 = 84
	KindReject     uint8 = 85
	KindReport     uint8 = 86 // B = best w, C = best edge (INF if none)
	KindChangeRoot uint8 = 87
	KindHalt       uint8 = 88
)

// Edge states.
const (
	basic    int8 = 0
	branch   int8 = 1
	rejected int8 = 2
)

// Node states.
const (
	stateFind  int64 = 0
	stateFound int64 = 1
)

// inf is the "no outgoing edge" report weight.
var inf = [2]int64{1<<63 - 1, 1<<63 - 1}

type node struct {
	ctx congest.Context

	nbrID []int32
	se    []int8

	sn        int64
	fn        [2]int64 // fragment name: core edge key (w, packed ids)
	ln        int64
	bestEdge  int
	bestWt    [2]int64
	testEdge  int
	inBranch  int
	findCount int

	pending []congest.Inbound
	// outQ is the output queue: one port-tagged FIFO for the whole
	// vertex instead of a slice header per port, borrowed from qpool
	// between the round's first send and its flush. A queue outlives
	// a flush only under backlog (more than Bandwidth messages on one
	// port), so a handful of pooled buffers serve a million vertices
	// where per-vertex queues would put a million growth ladders on
	// the heap.
	outQ   *[]queued
	halted bool
}

// qpool recycles output-queue buffers across vertices (pointer-typed:
// a *[]queued round-trips through the pool without boxing garbage).
var qpool = sync.Pool{New: func() any { q := make([]queued, 0, 16); return &q }}

// queued is one queued protocol message, packed for the protocol's
// actual payload ranges: A only ever carries a fragment level (well
// under 2^31) and D a two-valued node state, so an entry is 32 bytes
// instead of the 48 of a port plus a general congest.Message. At a
// million vertices the queues are a measurable slice of engine
// memory.
type queued struct {
	b, c int64 // B, C payloads: weight and packed edge key
	port int32
	a    int32 // A payload: fragment level
	kind uint8
	d    uint8 // D payload: node state
}

// unpack reconstructs the wire message.
func (q queued) unpack() congest.Message {
	return congest.Message{Kind: q.kind, A: int64(q.a), B: q.b, C: q.c, D: int64(q.d)}
}

// branchPorts lists the Branch ports at termination: the vertex's
// local view of the MST.
func (n *node) branchPorts() []int {
	var ports []int
	for p, s := range n.se {
		if s == branch {
			ports = append(ports, p)
		}
	}
	return ports
}

// helloBatch folds one wake's deliveries into the identity exchange:
// hellos are recorded, anything else — an eager neighbor already
// started the protocol — is deferred to pending (grown by exactly the
// batch's deferral count, keeping a million vertices' buffers off the
// append doubling ladder). It returns the number of hellos seen.
func (n *node) helloBatch(inbox []congest.Inbound) int {
	deferred := 0
	for _, in := range inbox {
		if in.Msg.Kind != KindHello {
			deferred++
		}
	}
	if deferred > 0 && cap(n.pending)-len(n.pending) < deferred {
		np := make([]congest.Inbound, len(n.pending), len(n.pending)+deferred)
		copy(np, n.pending)
		n.pending = np
	}
	got := 0
	for _, in := range inbox {
		if in.Msg.Kind != KindHello {
			n.pending = append(n.pending, in)
			continue
		}
		n.nbrID[in.Port] = int32(in.Msg.A)
		got++
	}
	return got
}

// key returns the unique weight key of the edge behind port p.
func (n *node) key(p int) [2]int64 {
	a, b := int64(n.ctx.ID()), int64(n.nbrID[p])
	if a > b {
		a, b = b, a
	}
	return [2]int64{n.ctx.Weight(p), a<<32 | b}
}

func keyLess(a, b [2]int64) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

// minBasic returns the lightest Basic port, or -1.
func (n *node) minBasic() int {
	best, bestKey := -1, inf
	for p, s := range n.se {
		if s != basic {
			continue
		}
		if k := n.key(p); keyLess(k, bestKey) {
			best, bestKey = p, k
		}
	}
	return best
}

func (n *node) send(p int, m congest.Message) {
	if n.outQ == nil {
		n.outQ = qpool.Get().(*[]queued)
	}
	*n.outQ = append(*n.outQ, queued{
		b: m.B, c: m.C, port: int32(p), a: int32(m.A), kind: m.Kind, d: uint8(m.D),
	})
}

// wakeup is the spontaneous start: connect over the lightest edge.
func (n *node) wakeup() {
	m := n.minBasic()
	n.se[m] = branch
	n.ln = 0
	n.sn = stateFound
	n.findCount = 0
	n.send(m, congest.Message{Kind: KindConnect, A: 0})
}

// flushOutQ drains the output queue in ascending port order with
// per-port FIFO, respecting bandwidth, and reports whether messages
// remain. The stable sort regroups the queue by port while keeping
// each port's send order (leftovers compact to the front, so they
// still precede anything queued later), which makes the emitted
// sequence identical to draining one FIFO per port — without a slice
// header per port.
func (n *node) flushOutQ() bool {
	if n.outQ == nil || len(*n.outQ) == 0 {
		return false
	}
	q := *n.outQ
	slices.SortStableFunc(q, func(a, b queued) int { return cmp.Compare(a.port, b.port) })
	b := n.ctx.Bandwidth()
	keep, i := 0, 0
	for i < len(q) {
		p := q[i].port
		sent := 0
		for i < len(q) && q[i].port == p {
			if sent < b {
				n.ctx.Send(int(p), q[i].unpack())
				sent++
			} else {
				q[keep] = q[i]
				keep++
			}
			i++
		}
	}
	*n.outQ = q[:keep]
	if keep == 0 {
		qpool.Put(n.outQ)
		n.outQ = nil
	}
	return keep > 0
}

// process handles one wake's deliveries plus the deferred pending set
// to a fixpoint: a message handled late in the batch may enable one
// requeued earlier in it. Unhandled messages compact in place and
// survivors land back in pending's own backing array, so a warm
// vertex processes wake after wake without allocating; inbox itself
// is read (and compacted) only during the call and never aliased
// into pending, so the engine-owned msgs buffer of a fiber wake is
// safe to pass straight through.
func (n *node) process(inbox []congest.Inbound) {
	work := inbox
	own := false // does work sit in pending's backing (ours to keep)?
	if len(n.pending) > 0 {
		work = append(n.pending, inbox...)
		own = true
	}
	for {
		progressed, kept := false, 0
		for _, in := range work {
			if n.handle(in) {
				progressed = true
			} else {
				work[kept] = in
				kept++
			}
		}
		work = work[:kept]
		if !progressed || kept == 0 {
			break
		}
	}
	switch {
	case own:
		n.pending = work
	case len(work) > 0:
		n.pending = append(n.pending[:0], work...)
	default:
		n.pending = n.pending[:0]
	}
}

// handle processes one message, returning false if it must wait.
func (n *node) handle(in congest.Inbound) bool {
	if n.halted {
		return true // late traffic is irrelevant after Halt
	}
	j, m := in.Port, in.Msg
	switch m.Kind {
	case KindConnect:
		if m.A < n.ln {
			// Absorb the lower-level fragment.
			n.se[j] = branch
			n.send(j, congest.Message{Kind: KindInitiate, A: n.ln, B: n.fn[0], C: n.fn[1], D: n.sn})
			if n.sn == stateFind {
				n.findCount++
			}
			return true
		}
		if n.se[j] == basic {
			return false // wait until our own level catches up
		}
		// Merge: the shared edge becomes the new, higher-level core.
		k := n.key(j)
		n.send(j, congest.Message{Kind: KindInitiate, A: n.ln + 1, B: k[0], C: k[1], D: stateFind})
		return true

	case KindInitiate:
		n.ln, n.fn, n.sn = m.A, [2]int64{m.B, m.C}, m.D
		n.inBranch = j
		n.bestEdge, n.bestWt = -1, inf
		for p, s := range n.se {
			if p == j || s != branch {
				continue
			}
			n.send(p, congest.Message{Kind: KindInitiate, A: m.A, B: m.B, C: m.C, D: m.D})
			if m.D == stateFind {
				n.findCount++
			}
		}
		if m.D == stateFind {
			n.test()
		}
		return true

	case KindTest:
		if m.A > n.ln {
			return false // wait: their fragment is ahead of ours
		}
		if m.B != n.fn[0] || m.C != n.fn[1] {
			n.send(j, congest.Message{Kind: KindAccept})
			return true
		}
		if n.se[j] == basic {
			n.se[j] = rejected
		}
		if n.testEdge != j {
			n.send(j, congest.Message{Kind: KindReject})
		} else {
			n.test()
		}
		return true

	case KindAccept:
		n.testEdge = -1
		if k := n.key(j); keyLess(k, n.bestWt) {
			n.bestEdge, n.bestWt = j, k
		}
		n.report()
		return true

	case KindReject:
		if n.se[j] == basic {
			n.se[j] = rejected
		}
		n.test()
		return true

	case KindReport:
		w := [2]int64{m.B, m.C}
		if j != n.inBranch {
			n.findCount--
			if keyLess(w, n.bestWt) {
				n.bestWt, n.bestEdge = w, j
			}
			n.report()
			return true
		}
		if n.sn == stateFind {
			return false // wait for our own search to finish
		}
		if keyLess(n.bestWt, w) {
			// Our side of the core holds the lighter outgoing edge.
			n.changeRoot()
			return true
		}
		if w == inf && n.bestWt == inf {
			n.halt()
		}
		return true

	case KindChangeRoot:
		n.changeRoot()
		return true

	case KindHalt:
		n.halted = true
		for p, s := range n.se {
			if p != j && s == branch {
				n.send(p, congest.Message{Kind: KindHalt})
			}
		}
		return true

	default:
		panic(fmt.Sprintf("ghs: vertex %d: unexpected kind %d", n.ctx.ID(), m.Kind))
	}
}

func (n *node) test() {
	if p := n.minBasic(); p >= 0 {
		n.testEdge = p
		n.send(p, congest.Message{Kind: KindTest, A: n.ln, B: n.fn[0], C: n.fn[1]})
		return
	}
	n.testEdge = -1
	n.report()
}

func (n *node) report() {
	if n.findCount == 0 && n.testEdge == -1 {
		n.sn = stateFound
		n.send(n.inBranch, congest.Message{Kind: KindReport, B: n.bestWt[0], C: n.bestWt[1]})
	}
}

func (n *node) changeRoot() {
	if n.se[n.bestEdge] == branch {
		n.send(n.bestEdge, congest.Message{Kind: KindChangeRoot})
		return
	}
	n.send(n.bestEdge, congest.Message{Kind: KindConnect, A: n.ln})
	n.se[n.bestEdge] = branch
}

// halt ends the protocol: this core vertex saw Report(inf) from both
// sides of the core, so no outgoing edge exists anywhere.
func (n *node) halt() {
	n.halted = true
	for p, s := range n.se {
		if s == branch {
			n.send(p, congest.Message{Kind: KindHalt})
		}
	}
}
