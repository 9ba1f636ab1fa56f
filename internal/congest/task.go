package congest

// This file is the resumable-program kit: a continuation-passing way to
// write a Fiber as straight-line code. A program is a chain of Steps;
// each Step names a park and the continuation to run when the vertex
// next wakes. StepFiber adapts such a chain to the Fiber interface, so
// every engine runs it, and because there is a single copy of each
// message handler every engine reports bit-identical
// Rounds/Messages/ByKind statistics by construction.
//
// A program written in the blocking style (wait calls that return the
// next wake's messages) converts mechanically:
//
//	msgs := wait for any delivery      →  return Await(k)       // k receives msgs
//	msgs := wait until round t         →  return Until(t, k)
//	msgs := wait for the next round    →  return Until(c.Round()+1, k)
//	until round end: handle each msg;  →  return Window(c, end, h, then)
//	  then the rest
//	return                             →  return Done()
//
// where k is the rest of the program as a Resume (then as a function
// of the Context alone, h as a per-message handler). Loops become
// recursive continuations that re-park to the same absolute deadline;
// the commonest loop, a fixed-length window that drains deliveries
// until an absolute end round, is Window, whose re-parks StepFiber
// performs itself.
//
// Continuations receive the live Context as a parameter and must use
// that value, never one captured before a park: engines hand out a
// shared Context that is re-pointed between wakes, so a captured
// Context silently aliases another vertex. Carrying plain data
// (counters, buffers, the algorithm's own state) across parks is the
// whole point and is always safe.
//
// That data lives in one of two places. A continuation literal can
// close over it, which is the shortest to write, but every escaping
// closure (and every method value written at a call site) is a heap
// allocation each time the Step is built. A program that runs many
// windows or parks instead keeps its state in a per-vertex record it
// re-arms, and hands Window and Await/Until method values bound once
// when the record was built; then a window or park costs nothing. The
// tree-operation records fragops.Tree (fragment trees) and
// bfstree.Tree (the BFS tree τ), and the stage machines of
// Controlled-GHS (internal/forest) and of the Boruvka-over-τ stage
// (internal/core) are written that way. A record can outlive the stage
// that built it: Controlled-GHS hands each vertex's fragops.Tree and
// port tables on to the next stage (forest.State), which continues on
// them instead of building its own.

// Resume is one continuation of a resumable program: it is handed the
// live Context and the messages that woke the program (nil on a bare
// deadline expiry) and returns the next Step.
type Resume func(c Context, msgs []Inbound) Step

// Step is a park decision paired with the continuation to run when the
// program next wakes. The zero Step is invalid; construct one with
// Done, Await, Until or Window.
type Step struct {
	park Park
	next Resume
	// handle and then are set on a Window step instead of next; its
	// park, ParkUntil(end), carries the window's end.
	handle func(c Context, in Inbound)
	then   func(c Context) Step
}

// Done retires the program: the algorithm finished.
func Done() Step { return Step{park: ParkDone} }

// Await parks until some future round delivers a message.
func Await(next Resume) Step { return Step{park: ParkAwait, next: next} }

// Until parks until round r, or until the first earlier round that
// delivers a message. r must exceed the current round;
// Until(c.Round()+1, k) wakes in the next round, which on the Async
// engine is the next delivery window, with whatever the closed one
// delivered.
func Until(r int64, next Resume) Step { return Step{park: ParkUntil(r), next: next} }

// Window drains deliveries until the absolute round end, handing each
// inbound message to handle, and then continues with then in round
// end. If the vertex is already at or past end, then runs at once.
// handle must not be nil. The Step carries both functions and
// StepFiber re-parks to end itself, so a window costs no allocation
// beyond whatever handle and then close over.
func Window(c Context, end int64, handle func(c Context, in Inbound), then func(c Context) Step) Step {
	if c.Round() >= end {
		return then(c)
	}
	return Step{park: ParkUntil(end), handle: handle, then: then}
}

// StepFiber adapts a Step program to the Fiber interface: the boot
// closure runs the round-0 prologue and each engine wake feeds the
// stored continuation. The struct is four words, so a slab of them is
// the "no goroutine, no stack" representation the engines want.
type StepFiber struct {
	// then is the boot closure (the program's round-0 prologue up to
	// its first park) until Start runs it; afterwards, the
	// continuation of the Window the program is in.
	then func(c Context) Step
	// next is the continuation of an Await or Until park.
	next Resume
	// handle and end are the current Window's message handler and end
	// round; handle is nil outside a window.
	handle func(c Context, in Inbound)
	end    int64
}

func (f *StepFiber) Start(c Context) Park {
	boot := f.then
	f.then = nil
	return f.enter(boot(c))
}

func (f *StepFiber) Resume(c Context, msgs []Inbound) Park {
	if f.handle == nil {
		return f.enter(f.next(c, msgs))
	}
	for _, in := range msgs {
		f.handle(c, in)
	}
	if c.Round() < f.end {
		return ParkUntil(f.end)
	}
	return f.enter(f.then(c))
}

// enter stores s's continuation and returns its park.
func (f *StepFiber) enter(s Step) Park {
	f.next, f.handle, f.then = s.next, s.handle, s.then
	if s.handle != nil {
		f.end = int64(s.park)
	}
	return s.park
}

// StepFiberFactory returns a fiber factory (the shape engines and the
// facade consume) over a slab of n StepFibers sharing one boot
// closure. boot builds a program's first Step; it may read the
// vertex's identity and degree from the Context it is handed, so one
// shared closure serves every vertex in the slab. The per-vertex cost
// at rest is one StepFiber struct in the slab plus the program's own
// state: the variables its continuations close over, allocated as the
// program runs, or the per-vertex records it builds once and re-arms
// (see the note on records at the top of this file).
func StepFiberFactory(n int, boot func(c Context) Step) func(id int) Fiber {
	slab := make([]StepFiber, n)
	return func(id int) Fiber {
		f := &slab[id]
		f.then = boot
		return f
	}
}
