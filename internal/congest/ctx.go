package congest

import "fmt"

// Context is the processor-side API of the CONGEST(b log n) model: what
// an algorithm may see and do at one vertex during one Fiber call.
// Every engine in this repository (lockstep, parallel, async, cluster)
// hands fibers the same implementation, a Shard's, so every algorithm
// runs unchanged, and is held to the same checks, on any of them.
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

// vertexCtx is the one Context implementation: each Shard keeps one
// and points it at a vertex before every call. Fibers of a shard run
// one at a time, so one outbox and one per-port send count serve them
// all.
type vertexCtx struct {
	s     *Shard
	id    int
	base  int64 // first arc of the vertex in the CSR
	deg   int
	round int64

	// out collects the call's sends; Step moves them into the shard's
	// rows once the call returned.
	out []Delivery

	// sentN counts the call's sends per port and ports lists the ports
	// it counted, so Step re-zeroes only those. A fiber is called at
	// most once per round, so per-call counts are per-round counts.
	sentN []int32
	ports []int32
}

var _ Context = (*vertexCtx)(nil)

// point aims the context at vertex id for one Start/Resume call.
func (c *vertexCtx) point(id int, round int64) {
	c.id, c.round = id, round
	c.base = c.s.csr.Off[id]
	c.deg = int(c.s.csr.Off[id+1] - c.base)
	if c.deg > len(c.sentN) {
		c.sentN = make([]int32, c.deg)
	}
}

// ID returns the identity of the hosting vertex.
func (c *vertexCtx) ID() int { return c.id }

// Degree returns the number of ports (incident edges).
func (c *vertexCtx) Degree() int { return c.deg }

// Weight returns the weight of the edge behind port p. Edge weights are
// known to both endpoints at the start of the computation.
func (c *vertexCtx) Weight(p int) int64 {
	c.check(p)
	return c.s.csr.W[c.base+int64(p)]
}

// Round returns the current round number (starting at 0).
func (c *vertexCtx) Round() int64 { return c.round }

// Bandwidth returns b, the number of messages each edge carries per
// direction per round (public model knowledge).
func (c *vertexCtx) Bandwidth() int { return c.s.b }

// Send queues m on port p for delivery at the beginning of the next
// round. Sending more than Bandwidth() messages on one port in a single
// round violates the CONGEST model and aborts the run.
func (c *vertexCtx) Send(p int, m Message) {
	c.check(p)
	if int(c.sentN[p]) >= c.s.b {
		c.s.fail(fmt.Errorf("%w: processor %d port %d round %d (b=%d)", ErrBandwidth, c.id, p, c.round, c.s.b))
		panic(errAborted)
	}
	if c.sentN[p] == 0 {
		c.ports = append(c.ports, int32(p))
	}
	c.sentN[p]++
	pos := c.base + int64(p)
	c.out = append(c.out, Delivery{To: c.s.csr.To[pos], Port: c.s.csr.PeerPort[pos], Msg: m})
}

// check fails the run when p is not a port of the vertex.
func (c *vertexCtx) check(p int) {
	if p < 0 || p >= c.deg {
		c.s.fail(fmt.Errorf("congest: processor %d used invalid port %d", c.id, p))
		panic(errAborted)
	}
}
