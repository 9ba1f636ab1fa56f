package bfstree

import "congestmst/internal/congest"

// BuildStep constructs the BFS tree rooted at the designated vertex.
// Every vertex enters BuildStep at round 0 and continues with then at
// the common round T0, handed its Tree. Cost: O(D) rounds, O(m)
// messages.
//
// The construction is the textbook synchronous BFS with ack/nack child
// discovery, followed by a convergecast of (subtree size, max depth), a
// broadcast of (n, Height, T0), and the paper's top-down interval
// assignment (Section 3): the root takes [1, n]; every vertex keeps the
// low endpoint of its interval as its label and hands its children
// disjoint subintervals sized by their subtree sizes.
func BuildStep(c congest.Context, root int, then func(c congest.Context, t *Tree) congest.Step) congest.Step {
	t := &Tree{ParentPort: -1}
	t.Root = c.ID() == root
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
				t.ChildPorts = append(t.ChildPorts, in.Port)
				t.ChildSizes = append(t.ChildSizes, 0)
				pending--
			case KindNack:
				pending--
			case KindDone:
				idx := t.childIndex(c, in.Port)
				t.ChildSizes[idx] = in.Msg.A
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
	sortChildren(t)

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
			return congest.Quiesce(func(c congest.Context, got []congest.Inbound) congest.Step {
				if len(got) != 0 {
					protocolf("root received %d stray messages before intervals", len(got))
				}
				t.assignChildIntervals(c)
				return waitQuietStep(c, t.T0, func(c congest.Context) congest.Step {
					return then(c, t)
				})
			})
		}
		return waitQuietStep(c, t.T0, func(c congest.Context) congest.Step {
			return then(c, t)
		})
	}

	// Step away from the round in which we may have ACKed on the parent
	// port, then report our completed subtree.
	return congest.Quiesce(func(c congest.Context, got []congest.Inbound) congest.Step {
		if len(got) != 0 {
			protocolf("vertex %d received %d messages while completing", c.ID(), len(got))
		}
		c.Send(t.ParentPort, congest.Message{Kind: KindDone, A: t.Size, B: maxDepth})

		// INIT then INTERVAL arrive from the parent, one round apart.
		return recvOneStep(c, KindInit, t.ParentPort, func(c congest.Context, init congest.Message) congest.Step {
			t.N, t.Height, t.T0 = init.A, init.B, init.C
			for _, p := range t.ChildPorts {
				c.Send(p, congest.Message{Kind: KindInit, A: t.N, B: t.Height, C: t.T0})
			}
			return recvOneStep(c, KindInterval, t.ParentPort, func(c congest.Context, iv congest.Message) congest.Step {
				t.Lo, t.Hi = iv.A, iv.B
				t.assignChildIntervals(c)
				return waitQuietStep(c, t.T0, func(c congest.Context) congest.Step {
					return then(c, t)
				})
			})
		})
	})
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

func (t *Tree) childIndex(c congest.Context, port int) int {
	for i, p := range t.ChildPorts {
		if p == port {
			return i
		}
	}
	protocolf("vertex %d: port %d is not a child", c.ID(), port)
	return -1
}

func sortChildren(t *Tree) {
	// ChildPorts were appended in arrival order; re-sort by port with
	// sizes kept parallel. Arrival order is already sorted per round,
	// but ACKs can span rounds.
	idx := make([]int, len(t.ChildPorts))
	for i := range idx {
		idx[i] = i
	}
	ports := append([]int(nil), t.ChildPorts...)
	sizes := append([]int64(nil), t.ChildSizes...)
	for i := range idx {
		best := i
		for j := i + 1; j < len(ports); j++ {
			if ports[j] < ports[best] {
				best = j
			}
		}
		ports[i], ports[best] = ports[best], ports[i]
		sizes[i], sizes[best] = sizes[best], sizes[i]
	}
	t.ChildPorts, t.ChildSizes = ports, sizes
}

// recvOneStep parks until a single message of the given kind arrives
// from the given port and hands it to then.
func recvOneStep(c congest.Context, kind uint8, port int, then func(c congest.Context, m congest.Message) congest.Step) congest.Step {
	return congest.Await(func(c congest.Context, msgs []congest.Inbound) congest.Step {
		if len(msgs) != 1 || msgs[0].Msg.Kind != kind || msgs[0].Port != port {
			protocolf("vertex %d expected single kind-%d from port %d, got %v", c.ID(), kind, port, msgs)
		}
		return then(c, msgs[0].Msg)
	})
}

// waitQuietStep parks until the common round t0, asserting no stray
// traffic, then continues.
func waitQuietStep(c congest.Context, t0 int64, then func(c congest.Context) congest.Step) congest.Step {
	if c.Round() > t0 {
		protocolf("vertex %d at round %d is past the alignment round %d", c.ID(), c.Round(), t0)
	}
	var loop congest.Resume
	loop = func(c congest.Context, msgs []congest.Inbound) congest.Step {
		if len(msgs) != 0 {
			protocolf("vertex %d received %d stray messages at round %d before round %d: %v",
				c.ID(), len(msgs), c.Round(), t0, msgs)
		}
		if c.Round() < t0 {
			return congest.Until(t0, loop)
		}
		return then(c)
	}
	return loop(c, nil)
}
