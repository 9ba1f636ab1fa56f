package parsim

import (
	"fmt"

	"congestmst/internal/congest"
)

// fiberCtx is the congest.Context a congest.Fiber sees under this
// engine. One instance per shard, repointed at each active vertex in
// turn: the exec phase is inline and sequential within a shard, so a
// single outbox buffer and a single bandwidth-scratch array serve
// every vertex of the shard, instead of each vertex owning its own.
type fiberCtx struct {
	e     *Engine
	id    int
	base  int64 // first arc position of this vertex in the CSR
	deg   int
	round int64

	// outbox collects the current fiber's sends; the exec loop drains
	// it into the shard's buckets after every call.
	outbox []outMsg

	// sentN counts this call's sends per port for bandwidth
	// enforcement; entries touched by the outbox are re-zeroed during
	// the drain, so the array stays clean without O(degree) resets.
	sentN []int32
}

var _ congest.Context = (*fiberCtx)(nil)

// point aims the context at vertex id for one Start/Resume call.
func (c *fiberCtx) point(id int, round int64) {
	c.id = id
	c.base = c.e.csr.Off[id]
	c.deg = c.e.csr.Degree(id)
	c.round = round
	if c.deg > len(c.sentN) {
		c.sentN = make([]int32, c.deg)
	}
}

// ID returns the identity of the hosting vertex.
func (c *fiberCtx) ID() int { return c.id }

// Degree returns the number of ports (incident edges).
func (c *fiberCtx) Degree() int { return c.deg }

// Weight returns the weight of the edge behind port p.
func (c *fiberCtx) Weight(p int) int64 { return c.e.csr.W[c.base+int64(p)] }

// Round returns the current round number (starting at 0).
func (c *fiberCtx) Round() int64 { return c.round }

// Bandwidth returns b, the per-edge per-direction message budget.
func (c *fiberCtx) Bandwidth() int { return c.e.cfg.bandwidth() }

// Send queues m on port p for delivery at the beginning of the next
// round, under the same CONGEST bandwidth enforcement as every other
// engine. A fiber is called at most once per round, so the per-call
// send counts are exactly the per-round counts.
func (c *fiberCtx) Send(p int, m congest.Message) {
	if p < 0 || p >= c.deg {
		c.e.fail(fmt.Errorf("parsim: processor %d sent on invalid port %d", c.id, p))
		panic(errAborted)
	}
	if int(c.sentN[p]) >= c.e.cfg.bandwidth() {
		c.e.fail(fmt.Errorf("%w: processor %d port %d round %d (b=%d)",
			congest.ErrBandwidth, c.id, p, c.round, c.e.cfg.bandwidth()))
		panic(errAborted)
	}
	c.sentN[p]++
	c.outbox = append(c.outbox, outMsg{port: int32(p), msg: m})
}
