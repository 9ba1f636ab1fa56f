// Package fragops provides window-scheduled communication primitives on
// MST-fragment trees: convergecast, argmin with winner pointers,
// broadcast, winner-path downcast, and single-path upcast. They are
// shared by the Controlled-GHS construction (internal/forest) and the
// Boruvka-over-τ stage of the main algorithm (internal/core).
//
// All primitives are driven by absolute round deadlines: every vertex
// of the graph enters the same primitive in the same round with a
// common `end`, and continues exactly at round `end`. A vertex whose fragment is
// not active simply drains its (empty) window, so global alignment is
// preserved without any coordination traffic.
//
// Each primitive is written in the Step form of internal/congest/task.go
// (the *Step functions): it takes the live congest.Context and hands its
// results to a continuation. Handlers and continuations take the live
// Context as a parameter and must not capture one across parks (engines
// re-point a shared Context between wakes). The window every primitive
// drains is congest.Window, which lives in congest with the rest of the
// Step kit; DrainStep is the window that expects no traffic.
package fragops

import (
	"fmt"

	"congestmst/internal/congest"
)

// Message kinds used on fragment trees (range 20-23, shared with the
// forest package's historical numbering).
const (
	KindConv   uint8 = 20 // convergecast payload: A,B,C
	KindBcast  uint8 = 21 // broadcast payload: A,B,C
	KindWinner uint8 = 22 // downcast along argmin winner pointers: A,B,C
	KindUpPath uint8 = 23 // single-path upcast to the fragment root: A,B,C
)

// Sentinel is an impossible argmin key, larger than any real
// (weight, id, id) key.
var Sentinel = [3]int64{1<<63 - 1, 1<<63 - 1, 1<<63 - 1}

// KeyLess compares two 3-word keys lexicographically.
func KeyLess(a, b [3]int64) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	if a[1] != b[1] {
		return a[1] < b[1]
	}
	return a[2] < b[2]
}

// DrainStep asserts that nothing arrives until end, then continues.
func DrainStep(c congest.Context, end int64, then func(c congest.Context) congest.Step) congest.Step {
	return congest.Window(c, end, func(c congest.Context, in congest.Inbound) {
		failf("vertex %d: unexpected kind %d on port %d at round %d",
			c.ID(), in.Msg.Kind, in.Port, c.Round())
	}, then)
}

func isChild(children []int, p int) bool {
	for _, c := range children {
		if c == p {
			return true
		}
	}
	return false
}

// ConvergeStep runs one fragment-internal convergecast inside
// [now, end): every vertex of an active fragment contributes own;
// combine folds a child's reported value into the accumulator. At end
// the fragment root continues with (combined, true); everyone else with
// (partial, false).
func ConvergeStep(c congest.Context, parent int, children []int, end int64, active bool,
	own [3]int64, combine func(acc, child [3]int64) [3]int64,
	then func(c congest.Context, acc [3]int64, isRoot bool) congest.Step) congest.Step {
	if !active {
		return DrainStep(c, end, func(c congest.Context) congest.Step {
			return then(c, own, false)
		})
	}
	acc := own
	pend := len(children)
	sent := false
	maybeSend := func(c congest.Context) {
		if pend == 0 && parent >= 0 && !sent {
			sent = true
			c.Send(parent, congest.Message{Kind: KindConv, A: acc[0], B: acc[1], C: acc[2]})
		}
	}
	maybeSend(c)
	return congest.Window(c, end, func(c congest.Context, in congest.Inbound) {
		if in.Msg.Kind != KindConv || !isChild(children, in.Port) {
			failf("vertex %d: kind %d from port %d during convergecast", c.ID(), in.Msg.Kind, in.Port)
		}
		acc = combine(acc, [3]int64{in.Msg.A, in.Msg.B, in.Msg.C})
		pend--
		maybeSend(c)
	}, func(c congest.Context) congest.Step {
		if pend != 0 {
			failf("vertex %d: convergecast missed %d children (window too small)", c.ID(), pend)
		}
		return then(c, acc, parent < 0)
	})
}

// ArgminStep is ConvergeStep specialised to lexicographic
// minimisation. It records a winner pointer into *winner before then
// runs: -2 if this vertex's own key won locally, -1 if no candidate
// reached here, or the child port whose subtree supplied the local
// minimum. A vertex with no candidate passes the Sentinel.
func ArgminStep(c congest.Context, parent int, children []int, end int64, active bool,
	own [3]int64, winner *int,
	then func(c congest.Context, best [3]int64, isRoot bool) congest.Step) congest.Step {
	*winner = -1
	if own != Sentinel {
		*winner = -2
	}
	if !active {
		return DrainStep(c, end, func(c congest.Context) congest.Step {
			return then(c, Sentinel, false)
		})
	}
	acc := own
	pend := len(children)
	sent := false
	maybeSend := func(c congest.Context) {
		if pend == 0 && parent >= 0 && !sent {
			sent = true
			c.Send(parent, congest.Message{Kind: KindConv, A: acc[0], B: acc[1], C: acc[2]})
		}
	}
	maybeSend(c)
	return congest.Window(c, end, func(c congest.Context, in congest.Inbound) {
		if in.Msg.Kind != KindConv || !isChild(children, in.Port) {
			failf("vertex %d: kind %d from port %d during argmin", c.ID(), in.Msg.Kind, in.Port)
		}
		got := [3]int64{in.Msg.A, in.Msg.B, in.Msg.C}
		if KeyLess(got, acc) {
			acc = got
			*winner = in.Port
		}
		pend--
		maybeSend(c)
	}, func(c congest.Context) congest.Step {
		if pend != 0 {
			failf("vertex %d: argmin missed %d children", c.ID(), pend)
		}
		return then(c, acc, parent < 0)
	})
}

// BroadcastStep distributes a 3-word payload from the fragment root
// inside [now, end); then receives the payload and whether one was
// received (true everywhere in active fragments).
func BroadcastStep(c congest.Context, parent int, children []int, end int64, active bool,
	own [3]int64, then func(c congest.Context, got [3]int64, received bool) congest.Step) congest.Step {
	if active && parent < 0 {
		for _, ch := range children {
			c.Send(ch, congest.Message{Kind: KindBcast, A: own[0], B: own[1], C: own[2]})
		}
		return DrainStep(c, end, func(c congest.Context) congest.Step {
			return then(c, own, true)
		})
	}
	var got [3]int64
	received := false
	return congest.Window(c, end, func(c congest.Context, in congest.Inbound) {
		if in.Msg.Kind != KindBcast || in.Port != parent || received {
			failf("vertex %d: kind %d from port %d during broadcast", c.ID(), in.Msg.Kind, in.Port)
		}
		received = true
		got = [3]int64{in.Msg.A, in.Msg.B, in.Msg.C}
		for _, ch := range children {
			c.Send(ch, congest.Message{Kind: KindBcast, A: got[0], B: got[1], C: got[2]})
		}
	}, func(c congest.Context) congest.Step {
		if active && !received {
			failf("vertex %d: broadcast never arrived", c.ID())
		}
		return then(c, got, received)
	})
}

// WinnerDowncastStep follows argmin winner pointers from the fragment
// root to the winning vertex inside [now, end). initiate must hold only
// at roots of fragments that start a downcast; winner must read this
// vertex's recorded pointer. then receives the payload and whether this
// vertex is the target.
func WinnerDowncastStep(c congest.Context, parent int, end int64, initiate bool,
	winner func() int, payload [3]int64,
	then func(c congest.Context, got [3]int64, target bool) congest.Step) congest.Step {
	target := false
	var got [3]int64
	if initiate {
		switch w := winner(); {
		case w == -2:
			target, got = true, payload
		case w >= 0:
			c.Send(w, congest.Message{Kind: KindWinner, A: payload[0], B: payload[1], C: payload[2]})
		default:
			failf("vertex %d: downcast initiated with no winner", c.ID())
		}
	}
	return congest.Window(c, end, func(c congest.Context, in congest.Inbound) {
		if in.Msg.Kind != KindWinner || in.Port != parent {
			failf("vertex %d: kind %d from port %d during winner downcast", c.ID(), in.Msg.Kind, in.Port)
		}
		switch w := winner(); {
		case w == -2:
			target, got = true, [3]int64{in.Msg.A, in.Msg.B, in.Msg.C}
		case w >= 0:
			c.Send(w, in.Msg)
		default:
			failf("vertex %d: winner downcast hit a dead end", c.ID())
		}
	}, func(c congest.Context) congest.Step {
		return then(c, got, target)
	})
}

// UpPathStep sends a 3-word payload from one origin vertex up the
// fragment tree to the root inside [now, end). The root's then receives
// (payload, true) if an origin existed in its fragment.
func UpPathStep(c congest.Context, parent int, children []int, end int64, origin bool,
	payload [3]int64,
	then func(c congest.Context, got [3]int64, received bool) congest.Step) congest.Step {
	received := false
	var got [3]int64
	deliver := func(c congest.Context, m [3]int64) {
		if parent < 0 {
			if received {
				failf("vertex %d: two UpPath payloads in one fragment", c.ID())
			}
			received, got = true, m
			return
		}
		c.Send(parent, congest.Message{Kind: KindUpPath, A: m[0], B: m[1], C: m[2]})
	}
	if origin {
		deliver(c, payload)
	}
	return congest.Window(c, end, func(c congest.Context, in congest.Inbound) {
		if in.Msg.Kind != KindUpPath || !isChild(children, in.Port) {
			failf("vertex %d: kind %d from port %d during UpPath", c.ID(), in.Msg.Kind, in.Port)
		}
		deliver(c, [3]int64{in.Msg.A, in.Msg.B, in.Msg.C})
	}, func(c congest.Context) congest.Step {
		return then(c, got, received)
	})
}

func failf(format string, args ...any) {
	panic(fmt.Sprintf("fragops: "+format, args...))
}
