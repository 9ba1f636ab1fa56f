package bfstree

import (
	"sort"

	"congestmst/internal/congest"
)

// Each tree primitive is written in the Step form of
// internal/congest/task.go: it takes the live Context and hands its
// result to a continuation.

// SyncBroadcastStep distributes a payload from the root to every vertex
// and realigns the whole network: every vertex continues with then at
// the same round (root send round + Height + 1), handed the broadcast
// message. Only the root's m is used; its A, B, C fields are the
// payload (D is reserved for the send round). Cost: O(Height) rounds,
// n-1 messages.
//
// All vertices must enter SyncBroadcastStep aligned (as BuildStep and
// the other primitives guarantee at the root's initiation points).
func (t *Tree) SyncBroadcastStep(c congest.Context, m congest.Message,
	then func(c congest.Context, got congest.Message) congest.Step) congest.Step {
	if t.Root {
		m.Kind = KindBcast
		m.D = c.Round()
		for _, p := range t.ChildPorts {
			c.Send(p, m)
		}
		return waitQuietStep(c, m.D+t.Height+1, func(c congest.Context) congest.Step {
			return then(c, m)
		})
	}
	return recvOneStep(c, KindBcast, t.ParentPort, func(c congest.Context, got congest.Message) congest.Step {
		for _, p := range t.ChildPorts {
			c.Send(p, got)
		}
		return waitQuietStep(c, got.D+t.Height+1, func(c congest.Context) congest.Step {
			return then(c, got)
		})
	})
}

// ConvergeStep aggregates a 3-word value up the tree with the supplied
// associative, commutative combiner. The root's then receives the
// combined value over all vertices; every other vertex continues with
// the zero value as soon as it has reported upward (an initiation by
// the root, typically a SyncBroadcastStep, must follow before the tree
// is reused). Cost: O(Height) rounds, n-1 messages.
func (t *Tree) ConvergeStep(c congest.Context, v [3]int64, combine func(a, b [3]int64) [3]int64,
	then func(c congest.Context, acc [3]int64) congest.Step) congest.Step {
	acc := v
	seen := 0
	var loop congest.Resume
	loop = func(c congest.Context, msgs []congest.Inbound) congest.Step {
		for _, in := range msgs {
			if in.Msg.Kind != KindConv {
				protocolf("vertex %d: kind %d during Converge", c.ID(), in.Msg.Kind)
			}
			acc = combine(acc, [3]int64{in.Msg.A, in.Msg.B, in.Msg.C})
			seen++
		}
		if seen < len(t.ChildPorts) {
			return congest.Await(loop)
		}
		if t.Root {
			return then(c, acc)
		}
		c.Send(t.ParentPort, congest.Message{Kind: KindConv, A: acc[0], B: acc[1], C: acc[2]})
		return then(c, [3]int64{})
	}
	return loop(c, nil)
}

// Item is one unit of a pipelined min-upcast: an arbitrary group key and
// a (W, U, V) weight key compared lexicographically (the unique edge
// order of the input graph, when items are edges).
type Item struct {
	Group   int64
	W, U, V int64
}

func itemLess(a, b Item) bool {
	if a.W != b.W {
		return a.W < b.W
	}
	if a.U != b.U {
		return a.U < b.U
	}
	if a.V != b.V {
		return a.V < b.V
	}
	// Two groups may legitimately share one edge as their minimum (an
	// edge crossing both); the group id breaks the tie so that child
	// streams stay strictly increasing.
	return a.Group < b.Group
}

// PipelinedUpcastStep performs the pipelined convergecast of Section 3:
// every vertex contributes items, every intermediate vertex forwards,
// per group, only the lightest item seen in its subtree, and the root's
// then receives the per-group minima sorted by weight key. Other
// vertices continue with nil after their subtree's stream is exhausted.
//
// With K distinct groups the upcast takes O(Height + K/b) rounds and
// O(Height·K) messages (each vertex forwards at most one item per group
// plus one end-of-stream marker). This is the classical upcast of Peleg
// Ch. 3 used twice by the paper: to register base fragments and to lift
// per-base-fragment MWOE candidates.
func (t *Tree) PipelinedUpcastStep(c congest.Context, own []Item,
	then func(c congest.Context, results []Item) congest.Step) congest.Step {
	b := c.Bandwidth()

	sort.Slice(own, func(i, j int) bool { return itemLess(own[i], own[j]) })
	ownIdx := 0
	// Per-child sorted streams, buffered in arrival order.
	bufs := make([][]Item, len(t.ChildPorts))
	heads := make([]int, len(t.ChildPorts))
	done := make([]bool, len(t.ChildPorts))
	doneCount := 0
	childIdx := make(map[int]int, len(t.ChildPorts))
	for i, p := range t.ChildPorts {
		childIdx[p] = i
	}
	emitted := make(map[int64]bool)
	var results []Item

	// next reports the overall minimum unconsumed item across all
	// sorted sources, or ok=false if some child stream is stalled
	// (empty but not done) or everything is consumed.
	next := func() (Item, bool, bool) { // item, available, exhausted
		exhausted := true
		var best Item
		have := false
		if ownIdx < len(own) {
			best, have = own[ownIdx], true
			exhausted = false
		}
		for i := range bufs {
			if heads[i] < len(bufs[i]) {
				it := bufs[i][heads[i]]
				if !have || itemLess(it, best) {
					best, have = it, true
				}
				exhausted = false
			} else if !done[i] {
				return Item{}, false, false // stalled on child i
			}
		}
		return best, have, exhausted
	}
	consume := func(c congest.Context, it Item) {
		if ownIdx < len(own) && own[ownIdx] == it {
			ownIdx++
			return
		}
		for i := range bufs {
			if heads[i] < len(bufs[i]) && bufs[i][heads[i]] == it {
				heads[i]++
				return
			}
		}
		protocolf("vertex %d: consumed item not found", c.ID())
	}

	var iterate func(c congest.Context) congest.Step
	wake := func(c congest.Context, msgs []congest.Inbound) congest.Step {
		for _, in := range msgs {
			i, isChild := childIdx[in.Port]
			if !isChild {
				protocolf("vertex %d: upcast message from non-child port %d", c.ID(), in.Port)
			}
			switch in.Msg.Kind {
			case KindUp:
				it := Item{Group: in.Msg.A, W: in.Msg.B, U: in.Msg.C, V: in.Msg.D}
				if n := len(bufs[i]); n > 0 && !itemLess(bufs[i][n-1], it) {
					protocolf("vertex %d: child stream not sorted", c.ID())
				}
				bufs[i] = append(bufs[i], it)
			case KindUpDone:
				if done[i] {
					protocolf("vertex %d: duplicate UpDone from port %d", c.ID(), in.Port)
				}
				done[i] = true
				doneCount++
			default:
				protocolf("vertex %d: kind %d during upcast", c.ID(), in.Msg.Kind)
			}
		}
		return iterate(c)
	}
	iterate = func(c congest.Context) congest.Step {
		sent := 0
		for sent < b {
			it, ok, _ := next()
			if !ok {
				break
			}
			consume(c, it)
			if emitted[it.Group] {
				continue // a heavier duplicate for an emitted group
			}
			emitted[it.Group] = true
			if t.Root {
				results = append(results, it)
				continue // root-side recording is free
			}
			c.Send(t.ParentPort, congest.Message{Kind: KindUp, A: it.Group, B: it.W, C: it.U, D: it.V})
			sent++
		}
		_, pending, exhausted := next()
		if exhausted && doneCount == len(t.ChildPorts) {
			if t.Root {
				return then(c, results)
			}
			if sent >= b {
				// Bandwidth refresh before the marker; anything that
				// round delivers is dropped.
				return congest.Quiesce(func(c congest.Context, _ []congest.Inbound) congest.Step {
					c.Send(t.ParentPort, congest.Message{Kind: KindUpDone})
					return then(c, nil)
				})
			}
			c.Send(t.ParentPort, congest.Message{Kind: KindUpDone})
			return then(c, nil)
		}
		// Block for more input if nothing is pending locally; otherwise
		// just let the next round start so bandwidth refreshes.
		if pending {
			return congest.Quiesce(wake)
		}
		return congest.Await(wake)
	}
	return iterate(c)
}

// Routed is one payload of a routed downcast, addressed by the routing
// label (interval low endpoint) of its destination vertex.
type Routed struct {
	Target int64
	A, B   int64
}

// RouteDownStep pipelines the root's pairs down the tree along interval
// routes (the paper's downcast of (F, F-hat') relabel messages): each
// vertex forwards a message to the unique child whose interval contains
// the target label. Termination is by a FLUSH marker broadcast behind
// the last payload on every tree edge; the marker carries a global
// completion deadline, at which every vertex continues simultaneously
// (self-aligning). Every vertex's then receives the pairs addressed to
// it.
// Cost: O(Height + |pairs|/b) rounds and O(Height·|pairs| + n) messages.
// Only the root's argument is consulted. All vertices must enter
// RouteDownStep aligned.
func (t *Tree) RouteDownStep(c congest.Context, pairs []Routed,
	then func(c congest.Context, mine []Routed) congest.Step) congest.Step {
	b := int64(c.Bandwidth())
	queues := make([][]congest.Message, len(t.ChildPorts))
	qHead := make([]int, len(t.ChildPorts))
	var mine []Routed

	enqueue := func(c congest.Context, r Routed) {
		if r.Target == t.Lo {
			mine = append(mine, r)
			return
		}
		i := t.childFor(r.Target)
		if i < 0 {
			protocolf("vertex %d: no route to label %d", c.ID(), r.Target)
		}
		queues[i] = append(queues[i], congest.Message{Kind: KindRoute, A: r.Target, B: r.A, C: r.B})
	}

	var deadline int64
	flushed := t.Root
	if t.Root {
		for _, r := range pairs {
			enqueue(c, r)
		}
		// Store-and-forward pipelining on a tree: every packet is
		// delayed by at most Height hops plus the queueing of the
		// other packets and the marker, ceil((|pairs|+1)/b) rounds.
		deadline = c.Round() + t.Height + (int64(len(pairs))+b)/b + 2
		for i := range queues {
			queues[i] = append(queues[i], congest.Message{Kind: KindRouteFlush, A: deadline})
		}
	}

	var iterate func(c congest.Context) congest.Step
	wake := func(c congest.Context, msgs []congest.Inbound) congest.Step {
		for _, in := range msgs {
			if in.Port != t.ParentPort {
				protocolf("vertex %d: downcast message from non-parent port %d", c.ID(), in.Port)
			}
			switch in.Msg.Kind {
			case KindRoute:
				enqueue(c, Routed{Target: in.Msg.A, A: in.Msg.B, B: in.Msg.C})
			case KindRouteFlush:
				if flushed {
					protocolf("vertex %d: duplicate flush", c.ID())
				}
				flushed = true
				deadline = in.Msg.A
				for i := range queues {
					queues[i] = append(queues[i], congest.Message{Kind: KindRouteFlush, A: deadline})
				}
			default:
				protocolf("vertex %d: kind %d during downcast", c.ID(), in.Msg.Kind)
			}
		}
		return iterate(c)
	}
	iterate = func(c congest.Context) congest.Step {
		backlog := false
		for i, p := range t.ChildPorts {
			var sent int64
			for qHead[i] < len(queues[i]) && sent < b {
				c.Send(p, queues[i][qHead[i]])
				qHead[i]++
				sent++
			}
			if qHead[i] < len(queues[i]) {
				backlog = true
			}
		}
		if flushed && !backlog {
			return waitQuietStep(c, deadline, func(c congest.Context) congest.Step {
				return then(c, mine)
			})
		}
		if backlog {
			return congest.Quiesce(wake)
		}
		return congest.Await(wake)
	}
	return iterate(c)
}
