package congest

import (
	"cmp"
	"slices"
)

// Message is the unit in which CONGEST message complexity is counted: a
// kind tag plus at most four integer payload words, i.e. a constant
// number of vertex identities and/or edge weights (O(log n) bits). One
// Message consumes one unit of per-edge bandwidth in the round it is
// sent; CONGEST(b log n) permits b Messages per edge-direction per round.
type Message struct {
	Kind       uint8
	A, B, C, D int64
}

// Inbound is a received message tagged with the local port (index into
// the receiving vertex's adjacency list) it arrived on. In the clean
// network model a vertex initially knows its ports, not its neighbors'
// identities.
type Inbound struct {
	Port int
	Msg  Message
}

// SortInbox stable-sorts one wake's deliveries by port, the order
// Fiber.Resume promises; per-port FIFO order survives. Every engine
// sorts its inboxes through it. The generic sort allocates nothing,
// unlike the reflective sort.SliceStable, which matters at millions of
// wakes per run.
func SortInbox(msgs []Inbound) {
	if len(msgs) > 1 {
		slices.SortStableFunc(msgs, func(a, b Inbound) int { return cmp.Compare(a.Port, b.Port) })
	}
}
