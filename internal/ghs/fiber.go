package ghs

import (
	"congestmst/internal/congest"
)

// Fiber is one GHS vertex, driven as a two-state congest.Fiber around
// the node methods: the hello state collects neighbor identities, and
// the main state plays the fixpoint message processing after a wake
// (Resume) and the output-queue drain before the next park (flush).
type Fiber struct {
	n     node
	state fiberState
	got   int32 // hello replies received

	// report receives the vertex's MST ports exactly once, when the
	// program finishes; it is shared by every fiber of a run.
	report func(id int, mstPorts []int)
}

type fiberState uint8

const (
	fsHello fiberState = iota // collecting neighbor identities
	fsMain                    // the GHS protocol proper
)

// FiberFactory returns a factory producing a GHS Fiber for each of n
// vertices, backed by one slab allocation — at 10^6
// vertices, one million-entry array instead of a million little
// structs matters. report is called exactly once per vertex, when the
// protocol terminates there, with the ports of its incident MST edges
// (the Branch edges, nil for an isolated vertex).
func FiberFactory(n int, report func(id int, mstPorts []int)) func(id int) congest.Fiber {
	slab := make([]Fiber, n)
	return func(id int) congest.Fiber {
		f := &slab[id]
		f.report = report
		return f
	}
}

var _ congest.Fiber = (*Fiber)(nil)

// Start is the round-0 prologue: send the identity exchange and wait
// for the replies.
func (f *Fiber) Start(c congest.Context) congest.Park {
	deg := c.Degree()
	if deg == 0 {
		f.report(c.ID(), nil) // isolated vertex: empty MST
		return congest.ParkDone
	}
	f.n = node{
		ctx:      c,
		nbrID:    make([]int32, deg),
		se:       make([]int8, deg),
		bestEdge: -1,
		testEdge: -1,
		inBranch: -1,
	}
	for p := 0; p < deg; p++ {
		c.Send(p, congest.Message{Kind: KindHello, A: int64(c.ID())})
	}
	return congest.ParkAwait
}

// Resume continues the program with one wake's deliveries.
func (f *Fiber) Resume(c congest.Context, msgs []congest.Inbound) congest.Park {
	n := &f.n
	// The Context is only valid for this call; re-bind it so the
	// shared node methods (key, minBasic, flushOutQ) see the live one.
	n.ctx = c
	if f.state == fsHello {
		f.got += int32(n.helloBatch(msgs))
		if int(f.got) < c.Degree() {
			return congest.ParkAwait
		}
		n.wakeup()
		f.state = fsMain
		return f.flush(c)
	}
	n.process(msgs)
	return f.flush(c)
}

// flush drains the output queues and chooses the next park: the next
// round while there is a backlog (or a halt still propagating), any
// delivery when only another message can change anything (a requeued
// message's wait condition changes only through another inbound
// message), done once halted with nothing left to send.
func (f *Fiber) flush(c congest.Context) congest.Park {
	n := &f.n
	backlog := n.flushOutQ()
	if n.halted && !backlog {
		f.report(c.ID(), n.branchPorts())
		return congest.ParkDone
	}
	if backlog || n.halted {
		return congest.ParkUntil(c.Round() + 1)
	}
	return congest.ParkAwait
}
