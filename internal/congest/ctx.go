package congest

import "fmt"

// Context is the processor-side API of the CONGEST(b log n) model: what
// an algorithm may see and do at one vertex during one Fiber call.
// Every engine in this repository (lockstep, parallel, async, cluster)
// implements it, so every algorithm runs unchanged on any of them.
// Waiting is not part of the surface: a program ends its round by
// returning a Park from Start or Resume.
type Context interface {
	// ID returns the identity of the hosting vertex.
	ID() int
	// Degree returns the number of ports (incident edges).
	Degree() int
	// Weight returns the weight of the edge behind port p.
	Weight(p int) int64
	// Round returns the current round number (starting at 0).
	Round() int64
	// Bandwidth returns b, the per-edge per-direction message budget.
	Bandwidth() int
	// Send queues m on port p for delivery at the next round.
	Send(p int, m Message)
}

// nodeCtx is the Context the lockstep engine hands to fibers. One
// instance serves the whole run, re-pointed at each vertex before its
// call: fibers run one at a time on the caller's goroutine, so a
// single outbox and a single per-port send counter suffice.
type nodeCtx struct {
	e     *Engine
	id    int
	round int64

	// outbox collects the current call's sends; the engine routes and
	// clears it after every call.
	outbox []outMsg

	// sentN counts this call's sends per port. A fiber is called at
	// most once per round, so per-call counts are per-round counts;
	// the entries the outbox touched are re-zeroed as it is routed.
	sentN []int
}

var _ Context = (*nodeCtx)(nil)

// point aims the context at vertex id for one Start/Resume call.
func (c *nodeCtx) point(id int, round int64) {
	c.id = id
	c.round = round
	if deg := c.Degree(); deg > len(c.sentN) {
		c.sentN = make([]int, deg)
	}
}

// ID returns the identity of the hosting vertex.
func (c *nodeCtx) ID() int { return c.id }

// Degree returns the number of ports (incident edges).
func (c *nodeCtx) Degree() int { return c.e.g.Degree(c.id) }

// Weight returns the weight of the edge behind port p. Edge weights are
// known to both endpoints at the start of the computation.
func (c *nodeCtx) Weight(p int) int64 {
	return c.e.g.Edge(c.e.g.Adj(c.id)[p].Edge).W
}

// Round returns the current round number (starting at 0).
func (c *nodeCtx) Round() int64 { return c.round }

// Bandwidth returns b, the number of messages each edge carries per
// direction per round (public model knowledge).
func (c *nodeCtx) Bandwidth() int { return c.e.cfg.bandwidth() }

// Send queues m on port p for delivery at the beginning of the next
// round. Sending more than Bandwidth() messages on one port in a single
// round violates the CONGEST model and aborts the run.
func (c *nodeCtx) Send(p int, m Message) {
	if p < 0 || p >= c.Degree() {
		c.e.fail(fmt.Errorf("congest: processor %d sent on invalid port %d", c.id, p))
		panic(errAborted)
	}
	if c.sentN[p] >= c.e.cfg.bandwidth() {
		c.e.fail(fmt.Errorf("%w: processor %d port %d round %d (b=%d)",
			ErrBandwidth, c.id, p, c.round, c.e.cfg.bandwidth()))
		panic(errAborted)
	}
	c.sentN[p]++
	c.outbox = append(c.outbox, outMsg{port: p, msg: m})
}
