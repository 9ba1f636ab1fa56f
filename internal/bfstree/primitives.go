package bfstree

import (
	"cmp"
	"slices"

	"congestmst/internal/congest"
)

// SyncBroadcast distributes a 3-word payload from the root to every
// vertex and realigns the whole network: every vertex continues with
// then at the same round (root send round + Height + 1), with the
// payload in Value. Only the root's payload is used. Cost: O(Height)
// rounds, n-1 messages.
//
// All vertices must enter SyncBroadcast aligned (as Build and the
// other operations guarantee at the root's initiation points).
func (t *Tree) SyncBroadcast(c congest.Context, payload [3]int64, then func(c congest.Context) congest.Step) congest.Step {
	t.arm(opBcast, then)
	if !t.Root {
		t.kind = KindBcast
		return congest.Await(t.wake)
	}
	t.Value = payload
	for _, p := range t.ChildPorts {
		c.Send(p, congest.Message{Kind: KindBcast, A: payload[0], B: payload[1], C: payload[2], D: c.Round()})
	}
	return t.quiet(c, c.Round()+t.Height+1)
}

// Item is one unit of a pipelined upcast: an arbitrary group key and
// a (W, U, V) weight key compared lexicographically (the unique edge
// order of the input graph, when items are edges).
type Item struct {
	Group   int64
	W, U, V int64
}

// compareItems orders items by weight key. Two groups may
// legitimately share one edge as their minimum (an edge crossing
// both); the group id breaks the tie so that child streams stay
// strictly increasing.
func compareItems(a, b Item) int {
	return cmp.Or(cmp.Compare(a.W, b.W), cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V), cmp.Compare(a.Group, b.Group))
}

// Upcast configures a PipelinedUpcast: the message kinds of a
// forwarded item (A=Group, B=W, C=U, D=V) and of the end-of-stream
// marker, and Keep, the filter. Keep is offered every item of a
// vertex's merged stream once, in ascending order, and reports whether
// the vertex forwards it, so it may keep state across the calls of one
// upcast: the set of groups already forwarded, or a union-find.
type Upcast struct {
	Kind, Done uint8
	Keep       func(it Item) bool
}

// PipelinedUpcast performs the pipelined convergecast of Section 3:
// every vertex contributes its own items, every vertex merges its
// children's ascending streams with them and forwards what up.Keep
// keeps, and the root continues with the items it kept in Results,
// ascending. Other vertices continue after their subtree's stream is
// exhausted. Keeping the first item of each group forwards, per group,
// only the lightest item seen in the subtree: with K groups the upcast
// then takes O(Height + K/b) rounds and O(Height·K) messages (each
// vertex forwards at most one item per group plus one end marker).
// This is the classical upcast of Peleg Ch. 3 the paper uses twice: to
// register base fragments and to lift per-base-fragment MWOE
// candidates.
func (t *Tree) PipelinedUpcast(c congest.Context, up Upcast, own []Item, then func(c congest.Context) congest.Step) congest.Step {
	t.arm(opUp, then)
	t.up = up
	t.own, t.ownHead = append(t.own[:0], own...), 0
	slices.SortFunc(t.own, compareItems)
	t.rearmKids()
	return t.pump(c)
}

// take buffers one message of a child's stream.
func (t *Tree) take(c congest.Context, in congest.Inbound) {
	k := &t.kids[t.childAt(c, in.Port)]
	switch in.Msg.Kind {
	case t.up.Kind:
		it := Item{Group: in.Msg.A, W: in.Msg.B, U: in.Msg.C, V: in.Msg.D}
		if n := len(k.items); n > 0 && compareItems(k.items[n-1], it) >= 0 {
			protocolf("vertex %d: child stream not sorted", c.ID())
		}
		k.items = append(k.items, it)
	case t.up.Done:
		if k.done {
			protocolf("vertex %d: duplicate end marker from port %d", c.ID(), in.Port)
		}
		k.done = true
	default:
		protocolf("vertex %d: kind %d during upcast", c.ID(), in.Msg.Kind)
	}
}

// least finds the least unconsumed item over the vertex's own and its
// children's: src is -1 for its own, else the child index. ok is false
// when a child stream is stalled (empty but not ended) or everything
// is consumed; exhausted tells the two apart.
func (t *Tree) least() (src int, ok, exhausted bool) {
	var best Item
	if t.ownHead < len(t.own) {
		best, src, ok = t.own[t.ownHead], -1, true
	}
	for i := range t.kids {
		k := &t.kids[i]
		switch {
		case k.head < len(k.items):
			if it := k.items[k.head]; !ok || compareItems(it, best) < 0 {
				best, src, ok = it, i, true
			}
		case !k.done:
			return 0, false, false
		}
	}
	return src, ok, !ok
}

// pump forwards up to one bandwidth's worth of kept items, then ends
// the upcast or parks for more input.
func (t *Tree) pump(c congest.Context) congest.Step {
	b, sent := c.Bandwidth(), 0
	for sent < b {
		src, ok, _ := t.least()
		if !ok {
			break
		}
		var it Item
		if src < 0 {
			it = t.own[t.ownHead]
			t.ownHead++
		} else {
			k := &t.kids[src]
			it = k.items[k.head]
			k.head++
		}
		if !t.up.Keep(it) {
			continue
		}
		if t.Root {
			t.Results = append(t.Results, it) // root-side recording is free
			continue
		}
		c.Send(t.ParentPort, congest.Message{Kind: t.up.Kind, A: it.Group, B: it.W, C: it.U, D: it.V})
		sent++
	}
	_, pending, exhausted := t.least()
	switch {
	case exhausted && t.Root:
		return t.then(c)
	case exhausted && sent >= b:
		// Bandwidth refresh before the marker; anything that round
		// delivers is dropped.
		t.op = opUpEnd
		return congest.Until(c.Round()+1, t.wake)
	case exhausted:
		c.Send(t.ParentPort, congest.Message{Kind: t.up.Done})
		return t.then(c)
	case pending:
		// Let the next round start so bandwidth refreshes.
		return congest.Until(c.Round()+1, t.wake)
	}
	return congest.Await(t.wake)
}

// Routed is one payload of a routed downcast, addressed by the routing
// label (interval low endpoint) of its destination vertex.
type Routed struct {
	Target int64
	A, B   int64
}

// RouteDown pipelines the root's pairs down the tree along interval
// routes (the paper's downcast of (F, F-hat') relabel messages): each
// vertex forwards a message to the unique child whose interval contains
// the target label. Termination is by a FLUSH marker broadcast behind
// the last payload on every tree edge; the marker carries a global
// completion deadline, at which every vertex continues with then
// simultaneously (self-aligning), the pairs addressed to it in Mine.
// Cost: O(Height + |pairs|/b) rounds and O(Height·|pairs| + n)
// messages. Only the root's pairs are consulted, and only during the
// call. All vertices must enter RouteDown aligned.
func (t *Tree) RouteDown(c congest.Context, pairs []Routed, then func(c congest.Context) congest.Step) congest.Step {
	t.arm(opRoute, then)
	t.rearmKids()
	t.flushed = t.Root
	if t.Root {
		for _, r := range pairs {
			t.enqueue(c, r)
		}
		// Store-and-forward pipelining on a tree: every packet is
		// delayed by at most Height hops plus the queueing of the
		// other packets and the marker, ceil((|pairs|+1)/b) rounds.
		b := int64(c.Bandwidth())
		t.end = c.Round() + t.Height + (int64(len(pairs))+b)/b + 2
	}
	return t.forward(c)
}

// route handles one message from the parent.
func (t *Tree) route(c congest.Context, in congest.Inbound) {
	if in.Port != t.ParentPort {
		protocolf("vertex %d: downcast message from non-parent port %d", c.ID(), in.Port)
	}
	switch in.Msg.Kind {
	case KindRoute:
		t.enqueue(c, Routed{Target: in.Msg.A, A: in.Msg.B, B: in.Msg.C})
	case KindRouteFlush:
		if t.flushed {
			protocolf("vertex %d: duplicate flush", c.ID())
		}
		t.flushed, t.end = true, in.Msg.A
	default:
		protocolf("vertex %d: kind %d during downcast", c.ID(), in.Msg.Kind)
	}
}

// enqueue keeps a pair addressed here and queues any other for the
// child whose interval holds its target.
func (t *Tree) enqueue(c congest.Context, r Routed) {
	if r.Target == t.Lo {
		t.Mine = append(t.Mine, r)
		return
	}
	i := t.childFor(r.Target)
	if i < 0 {
		protocolf("vertex %d: no route to label %d", c.ID(), r.Target)
	}
	t.kids[i].queue = append(t.kids[i].queue, r)
}

// forward sends each child up to one bandwidth's worth of its queued
// pairs and, once the end marker has arrived here, the marker behind
// the last of them; then it waits for the completion round or parks
// for more input.
func (t *Tree) forward(c congest.Context) congest.Step {
	b := c.Bandwidth()
	backlog := false
	for i, p := range t.ChildPorts {
		k := &t.kids[i]
		sent := 0
		for ; k.head < len(k.queue) && sent < b; sent++ {
			r := k.queue[k.head]
			c.Send(p, congest.Message{Kind: KindRoute, A: r.Target, B: r.A, C: r.B})
			k.head++
		}
		if t.flushed && !k.done && k.head == len(k.queue) && sent < b {
			c.Send(p, congest.Message{Kind: KindRouteFlush, A: t.end})
			k.done = true
		}
		backlog = backlog || k.head < len(k.queue) || (t.flushed && !k.done)
	}
	switch {
	case backlog:
		return congest.Until(c.Round()+1, t.wake)
	case t.flushed:
		return t.quiet(c, t.end)
	}
	return congest.Await(t.wake)
}
