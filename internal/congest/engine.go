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
// This is the lockstep reference engine: one Shard (shard.go) holding
// every vertex, played on the caller's goroutine and delivering its
// own sends. It is short enough to read as the executable spec of a
// round. Its siblings internal/parsim (a worker pool over many Shards,
// the right choice beyond ~10^5 vertices) and internal/nettrans
// (Shards over TCP) run the same fibers on the same Shard with
// bit-identical statistics; this engine remains the ground truth they
// are validated against.
//
// The package also holds what every engine shares. Shard is the one
// executor: the per-vertex record, the one Context, the call under
// recover, the park switch over its own Calendar (clock.go), the
// staged sends and the delivery arena, so a park or a delivered
// message allocates nothing on any barrier engine. Clock is the round
// counter with the MaxRounds and deadlock checks, and SortInbox the
// one inbox order. The Step kit (task.go) writes a Fiber as
// continuations: Await, Until, Done, and Window, a
// fixed-length window that drains deliveries into a handler until an
// absolute end round while StepFiber re-parks to that end itself.
package congest

import (
	"context"
	"errors"
	"fmt"
	"math"
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

// Engine executes one vertex program on one graph. Engines are
// single-use.
type Engine struct {
	cfg Config

	// shard holds every vertex and routes its own sends; clock is the
	// round counter it is played at. shard is nil once the run ended.
	shard *Shard
	clock *Clock

	failErr error
}

// NewEngine prepares an engine for g under cfg.
func NewEngine(g *graph.Graph, cfg Config) *Engine {
	e := &Engine{cfg: cfg, clock: NewClock(cfg.MaxRounds)}
	e.shard = NewShard(g.CSR(), 0, max(g.N(), 1), cfg.Bandwidth, e.fail)
	e.shard.Reserve()
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
	s := e.shard
	if s == nil {
		return nil, ErrReused
	}
	e.shard = nil // single use
	defer s.Release()
	if err := ctx.Err(); err != nil {
		return &Stats{}, fmt.Errorf("congest: run cancelled: %w", err)
	}
	s.Load(factory)
	obs := e.cfg.Observer
	for s.Live() > 0 {
		var roundStart time.Time
		if obs != nil {
			roundStart = time.Now() //lint:allow noclock observer round-wall-clock sampling, off the stats path
		}
		// A round: call the due fibers, then deliver what they sent.
		// Nothing sent in a round reaches an inbox before the round's
		// last call, so it is read only in the next round.
		round := e.clock.Now()
		active := s.Wake(round)
		s.Play(round)
		s.Receive(&s.Out[0])
		s.Deliver()
		if obs != nil {
			obs.OnRound(RoundEvent{
				Round:     round,
				Active:    active,
				Messages:  s.Messages,
				WallNanos: time.Since(roundStart).Nanoseconds(), //lint:allow noclock observer round-wall-clock sampling, off the stats path
			})
		}
		if e.failErr != nil || s.Live() == 0 {
			break
		}
		if err := ctx.Err(); err != nil {
			e.fail(fmt.Errorf("congest: run cancelled: %w", err))
			break
		}
		if err := e.clock.Advance(s.Next(round)); err != nil {
			e.fail(err)
			break
		}
	}
	var stats Stats
	s.AddTo(&stats)
	if obs != nil {
		// The final event pins the cumulative total to Stats.Messages,
		// so a trace's per-round deltas sum exactly to the run total
		// even when the run aborted mid-round.
		obs.OnRound(RoundEvent{Round: stats.Rounds, Messages: stats.Messages})
	}
	return &stats, e.failErr
}

// fail records the run's first error.
func (e *Engine) fail(err error) {
	if e.failErr == nil {
		e.failErr = err
	}
}
