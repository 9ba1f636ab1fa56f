package congest

// Fiber is a vertex program: a state machine driven by engine events.
// An engine calls Start once, in round 0, and Resume once per round in
// which the fiber is woken; both return a Park deciding when the fiber
// next runs. Between calls a parked fiber is nothing but its own state
// struct plus one calendar entry — no goroutine, no stack, no channel —
// so a million-vertex run keeps a million stacks off the heap.
//
// The Context handed to Start and Resume is owned by the calling
// engine and is only valid for the duration of the call: fibers must
// not retain it across returns (re-binding it at the top of each call
// is fine). Every stock algorithm in this repository is a Fiber (GHS
// directly, the Elkin variants and Pipeline through the Step kit in
// task.go).
//
// Park-target lifecycle, which multi-phase algorithms (Elkin's
// fragment phases, Pipeline's upcast/flood) lean on far harder than
// GHS does:
//
//   - Parks are single-shot. Each Start/Resume return is a fresh
//     decision; the engine remembers nothing from earlier parks. In
//     particular, a delivery wakes a ParkUntil(r) fiber before round r
//     and the old deadline is gone — a fiber still inside a
//     fixed-length window must re-issue ParkUntil(r) from Resume until
//     Round() reaches r (a Step program's Window does this for it).
//   - ParkUntil targets are absolute round numbers and must exceed the
//     round current at the moment Resume returns — not the round the
//     deadline was first computed in. Phase programs therefore compute
//     an end round once (end := c.Round()+h) and re-park to that same
//     absolute end; the engine rejects a stale target (target ≤
//     current round) as a contract violation and fails the run.
//   - ParkAwait has no deadline to go stale and may be re-issued
//     freely; a fiber that never parks Done and is never woken again
//     deadlocks the run, which the engine reports as ErrDeadlock.
type Fiber interface {
	// Start runs the program's round-0 prologue and returns the first
	// park decision.
	Start(c Context) Park
	// Resume continues the program with the messages that woke it,
	// sorted by port — nil when the wake was a bare ParkUntil deadline
	// expiry — and returns the next park decision. The msgs slice is
	// owned by the engine and recycled after the call: copy any
	// element the fiber keeps. On every barrier engine, Lockstep
	// included, it is a view into the shard's delivery arena, which
	// the next round overwrites; that is what lets a million-message
	// execution reuse one arena per shard instead of allocating an
	// inbox per wake.
	Resume(c Context, msgs []Inbound) Park
}

// Park is a fiber's yield decision. ParkDone retires the fiber,
// ParkAwait sleeps until a delivery, ParkUntil(r) sleeps until round r,
// and ParkUntil(Round()+1) wakes in the next round. Any delivery wakes
// a parked fiber early.
type Park int64

const (
	// ParkDone retires the fiber: the program finished.
	ParkDone Park = -1
	// ParkAwait parks until some future round delivers a message.
	ParkAwait Park = -2
)

// ParkUntil parks until round r, or until the first earlier round that
// delivers a message. r must exceed the current round;
// ParkUntil(Round()+1) wakes in the next round.
func ParkUntil(r int64) Park { return Park(r) }

// Deadline returns the absolute round a fiber that parked p wakes at,
// absent an earlier delivery: Forever for ParkAwait, r for
// ParkUntil(r). ParkDone has no deadline and returns ParkDone's own
// value.
func (p Park) Deadline() int64 {
	if p == ParkAwait {
		return Forever
	}
	return int64(p)
}
