// Package congest simulates the synchronous CONGEST(b log n) model of
// distributed computation (Peleg, "Distributed Computing: A
// Locality-Sensitive Approach"; Section 2 of Elkin, PODC'17).
//
// Every vertex of a weighted graph hosts a processor, written as a
// resumable Fiber: the engine calls Start once in round 0 and Resume
// once per round in which the processor is woken, and the returned
// Park says when to wake it next. Computation proceeds in lockstep
// rounds: a message sent in round r is delivered at the beginning of
// round r+1. Each edge carries at most b messages per direction per
// round; exceeding the budget aborts the run with an error, so every
// complexity figure measured under this engine is an honest CONGEST
// figure.
//
// The model is "clean" (KT0): a processor knows its own identity, its
// number of ports, and the weight of each incident edge - nothing else.
// Neighbor identities must be learned through messages.
//
// The engine is deterministic: inboxes are sorted by port, per-port FIFO
// order is preserved, and node programs are required to be deterministic
// functions of their inputs. Two runs of the same program on the same
// graph produce identical round and message counts.
//
// This is the lockstep reference engine: it plays each round on the
// caller's goroutine, calling the woken fibers in ascending vertex
// order and routing every message itself. Its siblings internal/parsim
// (a worker pool over vertex shards, the right choice beyond ~10^5
// vertices) and internal/nettrans (shards over TCP) run the same
// fibers with bit-identical statistics; this engine remains the ground
// truth they are validated against.
//
// The package also holds what every engine shares. Clock (clock.go)
// is the round counter with its park calendar; Calendar, the typed
// binary heap of park deadlines inside it, is the one calendar all
// three round loops keep, and SortInbox the one inbox order, so a park
// allocates nothing on any engine. The Step kit (task.go) writes a
// Fiber as continuations: Await, Until, Quiesce, Done, and Window, a
// fixed-length window that drains deliveries into a handler until an
// absolute end round while StepFiber re-parks to that end itself.
package congest

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"congestmst/internal/graph"
)

// Forever is the wake deadline of a ParkAwait: "wake only on delivery".
const Forever = int64(math.MaxInt64)

// Config parameterizes an Engine.
type Config struct {
	// Bandwidth is b: the number of Messages each edge carries per
	// direction per round. Zero means 1 (the standard CONGEST model).
	Bandwidth int
	// MaxRounds aborts runs that exceed this many rounds (a safety net
	// against livelocked programs). Zero means 100 million.
	MaxRounds int64
	// Observer, when non-nil, receives one RoundEvent per played round
	// (and the final totals). Nil costs one pointer check per round.
	Observer Observer
}

func (c Config) bandwidth() int {
	if c.Bandwidth <= 0 {
		return 1
	}
	return c.Bandwidth
}

func (c Config) maxRounds() int64 {
	if c.MaxRounds <= 0 {
		return 100_000_000
	}
	return c.MaxRounds
}

// Stats reports the complexity measures of a completed run.
type Stats struct {
	// Rounds is the index of the last round in which any processor ran.
	Rounds int64
	// Messages is the total number of Messages delivered.
	Messages int64
	// ByKind counts delivered Messages per Message.Kind.
	ByKind [256]int64
}

// Errors produced by the engine.
var (
	ErrBandwidth = errors.New("congest: per-edge bandwidth exceeded")
	ErrDeadlock  = errors.New("congest: deadlock: all processors blocked with no messages in flight")
	ErrMaxRounds = errors.New("congest: exceeded MaxRounds")
	ErrReused    = errors.New("congest: Engine.Run may only be called once")
)

// errAborted is the sentinel panic value that unwinds a fiber call
// after the run has failed. It never escapes the package.
var errAborted = errors.New("congest: run aborted")

// Engine executes one vertex program on one graph. Engines are
// single-use.
type Engine struct {
	g   *graph.Graph
	cfg Config

	// csr is the graph's cached flat adjacency; csr.PeerPort[Off[v]+p]
	// is the port index at the far endpoint of the edge behind port p
	// of vertex v.
	csr *graph.CSR

	nodes []nodeState
	ctx   nodeCtx

	// clock is the shared round clock + park calendar (clock.go); this
	// engine drives it in lockstep, one tick per played round.
	clock *Clock
	stats Stats

	// ready lists processors due at round+1 (fresh deliveries or an
	// explicit next-round park); the clock's calendar orders the more
	// distant deadlines. due is the wake set of the round being played
	// and wake its detached inboxes, parallel to it. ready and due
	// trade backing arrays every round, so neither is reallocated.
	ready []int
	due   []int
	wake  [][]Inbound

	failErr error
}

type nodeState struct {
	fib    Fiber // nil once done
	inbox  []Inbound
	queued bool  // already in the next wake set
	parked bool  // between calls, waiting for a wake
	gen    int64 // invalidates stale timer entries
	done   bool
}

// NewEngine prepares an engine for g under cfg.
func NewEngine(g *graph.Graph, cfg Config) *Engine {
	e := &Engine{
		g:     g,
		cfg:   cfg,
		csr:   g.CSR(),
		nodes: make([]nodeState, g.N()),
		clock: NewClock(cfg.maxRounds()),
	}
	e.ctx.e = e
	return e
}

// Run executes the fiber factory(v) on every vertex v and returns once
// every fiber parked Done (or the run fails). It returns the stats
// accumulated up to completion or failure.
func (e *Engine) Run(factory func(id int) Fiber) (*Stats, error) {
	return e.RunContext(context.Background(), factory)
}

// RunContext is Run under a context: cancellation (or a deadline) is
// checked at every round boundary, and a cancelled run drops every
// parked fiber before returning an error wrapping ctx.Err(). Fibers
// run on the caller's goroutine, one at a time in ascending vertex
// order; the engine starts no goroutine of its own.
func (e *Engine) RunContext(ctx context.Context, factory func(id int) Fiber) (*Stats, error) {
	if e.nodes == nil {
		return nil, ErrReused
	}
	if err := ctx.Err(); err != nil {
		e.nodes = nil
		return &Stats{}, fmt.Errorf("congest: run cancelled: %w", err)
	}
	n := e.g.N()
	// Round 0: release everyone.
	current := make([]int, n)
	for v := range current {
		e.nodes[v].fib = factory(v)
		current[v] = v
	}
	e.due = current
	doneCount := 0
	obs := e.cfg.Observer
	for n > 0 {
		var roundStart time.Time
		if obs != nil {
			roundStart = time.Now() //lint:allow noclock observer round-wall-clock sampling, off the stats path
		}
		doneCount += e.playRound(current)
		if obs != nil {
			obs.OnRound(RoundEvent{
				Round:     e.clock.Now(),
				Active:    len(current),
				Messages:  e.stats.Messages,
				WallNanos: time.Since(roundStart).Nanoseconds(), //lint:allow noclock observer round-wall-clock sampling, off the stats path
			})
		}
		if e.failErr != nil || doneCount == n {
			break
		}
		if err := ctx.Err(); err != nil {
			e.fail(fmt.Errorf("congest: run cancelled: %w", err))
			break
		}
		next, err := e.nextWakeSet()
		if err != nil {
			e.fail(err)
			break
		}
		current = next
	}
	e.nodes = nil // single use; drops every parked fiber
	if obs != nil {
		// The final event pins the cumulative total to Stats.Messages,
		// so a trace's per-round deltas sum exactly to the run total
		// even when the run aborted mid-round.
		obs.OnRound(RoundEvent{Round: e.stats.Rounds, Messages: e.stats.Messages})
	}
	stats := e.stats
	return &stats, e.failErr
}

// playRound calls the given processors at the current round, routes
// their messages, and returns how many of them finished their program.
func (e *Engine) playRound(ids []int) int {
	if len(ids) == 0 {
		return 0
	}
	round := e.clock.Now()
	if round > e.stats.Rounds {
		e.stats.Rounds = round
	}
	// Detach every inbox of the wake set before the first call, so a
	// message sent in this round reaches a later vertex of the same
	// wake set only in the next round.
	e.wake = e.wake[:0]
	for _, id := range ids {
		ns := &e.nodes[id]
		ns.queued = false
		ns.parked = false
		msgs := ns.inbox
		ns.inbox = nil
		SortInbox(msgs)
		e.wake = append(e.wake, msgs)
	}
	finished := 0
	for i, id := range ids {
		ns := &e.nodes[id]
		park, ok := e.call(ns, id, round, e.wake[i])
		for _, om := range e.ctx.outbox {
			e.ctx.sentN[om.port] = 0
			if ok { // a failed call's partial outbox is discarded
				e.route(id, om)
			}
		}
		e.ctx.outbox = e.ctx.outbox[:0]
		if !ok || park == ParkDone {
			ns.done, ns.fib = true, nil
			finished++
			continue
		}
		target := park.Deadline(round)
		if target <= round {
			e.fail(fmt.Errorf("congest: processor %d parked for round %d at round %d", id, target, round))
			ns.done, ns.fib = true, nil
			finished++
			continue
		}
		ns.parked = true
		ns.gen++
		switch {
		case len(ns.inbox) > 0 || target == round+1:
			ns.queued = true
			e.ready = append(e.ready, id)
		case target < Forever:
			e.clock.Schedule(TimerEntry{Round: target, ID: id, Gen: ns.gen})
		}
	}
	return finished
}

// call runs one Start (round 0) or Resume; a panic fails the run and
// ok reports whether the fiber survived the call. errAborted is the
// unwinding sentinel of an already-failed run (a bandwidth or port
// violation) and is not reported again.
func (e *Engine) call(ns *nodeState, id int, round int64, msgs []Inbound) (park Park, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if r != errAborted { //nolint:errorlint // sentinel identity
				e.fail(fmt.Errorf("congest: processor %d panicked: %v", id, r))
			}
			park, ok = ParkDone, false
		}
	}()
	e.ctx.point(id, round)
	if round == 0 {
		return ns.fib.Start(&e.ctx), true
	}
	return ns.fib.Resume(&e.ctx, msgs), true
}

// route delivers one outbound message into the recipient's inbox and
// schedules the recipient's wakeup for the next round.
func (e *Engine) route(from int, om outMsg) {
	pos := e.csr.Off[from] + int64(om.port)
	to := int(e.csr.To[pos])
	ns := &e.nodes[to]
	ns.inbox = append(ns.inbox, Inbound{Port: int(e.csr.PeerPort[pos]), Msg: om.msg})
	e.stats.Messages++
	e.stats.ByKind[om.msg.Kind]++
	if ns.parked && !ns.queued && !ns.done {
		ns.queued = true
		e.ready = append(e.ready, to)
	}
}

// nextWakeSet advances the clock and returns the processors to
// release: the ready list when anyone is due at round+1, with calendar
// entries expiring at (or before) the new round firing alongside;
// otherwise the clock fast-forwards to the earliest live deadline.
func (e *Engine) nextWakeSet() ([]int, error) {
	if err := e.clock.Advance(len(e.ready) > 0, e.liveTimer); err != nil {
		return nil, err
	}
	e.due, e.ready = e.ready, e.due[:0]
	e.clock.PopDue(e.liveTimer, e.release)
	slices.Sort(e.due)
	return e.due, nil
}

// release adds a due calendar entry's processor to the wake set.
func (e *Engine) release(t TimerEntry) {
	e.nodes[t.ID].queued = true // guards against double release
	e.due = append(e.due, t.ID)
}

// liveTimer reports whether a calendar entry still represents a parked
// processor (stale entries survive early wakes; the gen check kills
// them).
func (e *Engine) liveTimer(t TimerEntry) bool {
	ns := &e.nodes[t.ID]
	return !ns.done && ns.parked && !ns.queued && ns.gen == t.Gen
}

// fail records the run's first error.
func (e *Engine) fail(err error) {
	if e.failErr == nil {
		e.failErr = err
	}
}
