package bfstree

import (
	"slices"

	"congestmst/internal/congest"
)

// Build constructs the BFS tree rooted at the designated vertex. Every
// vertex enters Build at round 0 and continues with then at the common
// round T0, handed its Tree. Cost: O(D) rounds, O(m) messages. Build
// runs once per vertex, so its continuations are closures; the
// operations on the Tree it returns allocate nothing.
//
// The construction is the textbook synchronous BFS with ack/nack child
// discovery, followed by a convergecast of (subtree size, max depth), a
// broadcast of (n, Height, T0), and the paper's top-down interval
// assignment (Section 3): the root takes [1, n]; every vertex keeps the
// low endpoint of its interval as its label and hands its children
// disjoint subintervals sized by their subtree sizes.
func Build(c congest.Context, root int, then func(c congest.Context, t *Tree) congest.Step) congest.Step {
	t := &Tree{ParentPort: -1, Root: c.ID() == root}
	t.wake = t.resume
	deg := c.Degree()

	if t.Root {
		for p := 0; p < deg; p++ {
			c.Send(p, congest.Message{Kind: KindLevel, A: 0})
		}
		return buildCollect(c, t, deg, then)
	}
	// Wait for the BFS wave.
	return congest.Await(func(c congest.Context, msgs []congest.Inbound) congest.Step {
		t.Depth = msgs[0].Msg.A + 1
		seen := make(map[int]bool, len(msgs))
		for i, in := range msgs {
			if in.Msg.Kind != KindLevel {
				protocolf("vertex %d expected LEVEL, got kind %d", c.ID(), in.Msg.Kind)
			}
			seen[in.Port] = true
			if i == 0 {
				t.ParentPort = in.Port // lowest port: inbox is sorted
				c.Send(in.Port, congest.Message{Kind: KindAck})
			} else {
				c.Send(in.Port, congest.Message{Kind: KindNack})
			}
		}
		pending := 0 // LEVEL replies still owed to us
		for p := 0; p < deg; p++ {
			if !seen[p] {
				c.Send(p, congest.Message{Kind: KindLevel, A: t.Depth})
				pending++
			}
		}
		return buildCollect(c, t, pending, then)
	})
}

// buildCollect gathers LEVEL replies and child DONEs, then finishes the
// construction (interval assignment and the T0 alignment).
func buildCollect(c congest.Context, t *Tree, pending int, then func(c congest.Context, t *Tree) congest.Step) congest.Step {
	t.Size = 1
	maxDepth := t.Depth
	childDone := 0
	var loop congest.Resume
	loop = func(c congest.Context, msgs []congest.Inbound) congest.Step {
		for _, in := range msgs {
			switch in.Msg.Kind {
			case KindLevel:
				// A same-depth cross edge; never a child.
				c.Send(in.Port, congest.Message{Kind: KindNack})
			case KindAck:
				// ACKs can span rounds: keep the children in port order.
				i, _ := slices.BinarySearch(t.ChildPorts, in.Port)
				t.ChildPorts = slices.Insert(t.ChildPorts, i, in.Port)
				t.ChildSizes = slices.Insert(t.ChildSizes, i, 0)
				pending--
			case KindNack:
				pending--
			case KindDone:
				t.ChildSizes[t.childAt(c, in.Port)] = in.Msg.A
				t.Size += in.Msg.A
				if in.Msg.B > maxDepth {
					maxDepth = in.Msg.B
				}
				childDone++
			default:
				protocolf("vertex %d: unexpected kind %d during BFS", c.ID(), in.Msg.Kind)
			}
		}
		if pending > 0 || childDone < len(t.ChildPorts) {
			return congest.Await(loop)
		}
		return buildFinish(c, t, maxDepth, then)
	}
	return loop(c, nil)
}

func buildFinish(c congest.Context, t *Tree, maxDepth int64, then func(c congest.Context, t *Tree) congest.Step) congest.Step {
	released := func(c congest.Context) congest.Step {
		t.state = nil // and with it Build's closures
		return then(c, t)
	}

	if t.Root {
		t.N = t.Size
		t.Height = maxDepth
		t.Lo, t.Hi = 1, t.N
		s := c.Round()
		t.T0 = s + t.Height + 2
		for _, p := range t.ChildPorts {
			c.Send(p, congest.Message{Kind: KindInit, A: t.N, B: t.Height, C: t.T0})
		}
		if len(t.ChildPorts) > 0 {
			return congest.Until(c.Round()+1, func(c congest.Context, got []congest.Inbound) congest.Step {
				if len(got) != 0 {
					protocolf("root received %d stray messages before intervals", len(got))
				}
				t.assignChildIntervals(c)
				return t.Quiet(c, t.T0, released)
			})
		}
		return t.Quiet(c, t.T0, released)
	}

	// Step away from the round in which we may have ACKed on the parent
	// port, then report our completed subtree.
	return congest.Until(c.Round()+1, func(c congest.Context, got []congest.Inbound) congest.Step {
		if len(got) != 0 {
			protocolf("vertex %d received %d messages while completing", c.ID(), len(got))
		}
		c.Send(t.ParentPort, congest.Message{Kind: KindDone, A: t.Size, B: maxDepth})

		// INIT then INTERVAL arrive from the parent, one round apart.
		return t.receive(KindInit, func(c congest.Context) congest.Step {
			t.N, t.Height, t.T0 = t.Value[0], t.Value[1], t.Value[2]
			for _, p := range t.ChildPorts {
				c.Send(p, congest.Message{Kind: KindInit, A: t.N, B: t.Height, C: t.T0})
			}
			return t.receive(KindInterval, func(c congest.Context) congest.Step {
				t.Lo, t.Hi = t.Value[0], t.Value[1]
				t.assignChildIntervals(c)
				return t.Quiet(c, t.T0, released)
			})
		})
	})
}

// receive parks until a single message of the given kind arrives from
// the parent, leaves its A, B, C in Value and continues with then.
func (t *Tree) receive(kind uint8, then func(c congest.Context) congest.Step) congest.Step {
	t.arm(opRecv, then)
	t.kind = kind
	return congest.Await(t.wake)
}

// assignChildIntervals gives child i the subinterval of size
// ChildSizes[i] starting right after the vertex's own label, in
// ascending port order, and sends it.
func (t *Tree) assignChildIntervals(c congest.Context) {
	next := t.Lo + 1
	t.ChildIvs = make([][2]int64, len(t.ChildPorts))
	for i, p := range t.ChildPorts {
		lo, hi := next, next+t.ChildSizes[i]-1
		t.ChildIvs[i] = [2]int64{lo, hi}
		next = hi + 1
		c.Send(p, congest.Message{Kind: KindInterval, A: lo, B: hi})
	}
	if next != t.Hi+1 {
		protocolf("vertex %d interval arithmetic: next=%d hi=%d", c.ID(), next, t.Hi)
	}
}
