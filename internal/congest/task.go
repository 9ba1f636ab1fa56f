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
//	return                             →  return Done()
//
// where k is the rest of the program as a Resume. Loops become
// recursive continuations that re-park to the same absolute deadline.
//
// Continuations receive the live Context as a parameter and must use
// that value, never one captured before a park: engines hand out a
// shared Context that is re-pointed between wakes, so a captured
// Context silently aliases another vertex. Capturing plain data
// (counters, buffers, the algorithm's own state) across parks is the
// whole point and is always safe.

// Resume is one continuation of a resumable program: it is handed the
// live Context and the messages that woke the program (nil on a bare
// deadline expiry) and returns the next Step.
type Resume func(c Context, msgs []Inbound) Step

// Step is a park decision paired with the continuation to run when the
// program next wakes. The zero Step is invalid; construct one with
// Done, Await or Until.
type Step struct {
	park Park
	next Resume
}

// Done retires the program: the algorithm finished.
func Done() Step { return Step{park: ParkDone} }

// Await parks until some future round delivers a message.
func Await(next Resume) Step { return Step{park: ParkAwait, next: next} }

// Until parks until round r, or until the first earlier round that
// delivers a message. r must exceed the current round;
// Until(c.Round()+1, k) wakes in the next round.
func Until(r int64, next Resume) Step { return Step{park: ParkUntil(r), next: next} }

// Quiesce parks until the synchronizer next advances past a quiescent
// point (ParkQuiesce): the close of the current delivery window on the
// Async engine, the next round on every round-clock engine. It is the
// engine-neutral spelling of "one tick" for programs that do not need
// an absolute deadline.
func Quiesce(next Resume) Step { return Step{park: ParkQuiesce, next: next} }

// StepFiber adapts a Step program to the Fiber interface: Boot runs the
// round-0 prologue and each engine wake feeds the stored continuation.
// The struct is two words plus the boot closure, so a slab of them is
// the "no goroutine, no stack" representation the engines want.
type StepFiber struct {
	// Boot builds the program's first Step (the round-0 prologue up
	// to the first park). It may read the vertex's identity and degree
	// from the Context it is handed, so one shared closure serves every
	// vertex in a slab.
	Boot func(c Context) Step
	next Resume
}

func (f *StepFiber) Start(c Context) Park {
	s := f.Boot(c)
	f.Boot = nil
	f.next = s.next
	return s.park
}

func (f *StepFiber) Resume(c Context, msgs []Inbound) Park {
	s := f.next(c, msgs)
	f.next = s.next
	return s.park
}

// StepFiberFactory returns a fiber factory (the shape engines and the
// facade consume) over a slab of n StepFibers sharing one boot
// closure. The per-vertex cost at rest is one StepFiber struct in the
// slab; all algorithm state lives in the continuations' closed-over
// variables, allocated as the program runs.
func StepFiberFactory(n int, boot func(c Context) Step) func(id int) Fiber {
	slab := make([]StepFiber, n)
	return func(id int) Fiber {
		f := &slab[id]
		f.Boot = boot
		return f
	}
}
