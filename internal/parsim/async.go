package parsim

// The Async engine: the fiber substrate without the round barrier.
//
// The barrier engines play a round as two globally-synchronized
// phases — every shard executes, then every shard delivers. This file
// replaces that with per-shard delivery queues and an
// acknowledgment-counting quiescence detector, in the style of an
// α-synchronizer: a message leaves its sender the moment the sending
// vertex yields (one flush per vertex, not one scatter per round), and
// a destination shard drains its queue as soon as its own execution
// slice is finished — concurrently with other shards still executing.
// The shards are the barrier engines' congest.Shards, stepped one
// vertex at a time so each vertex's sends can be flushed as it yields,
// and drained one message at a time with Shard.Put. The logical clock
// (congest.Clock, shared with every other engine) advances when the
// window quiesces: every execution slice done and the in-flight
// acknowledgment counter at zero.
//
// What stays synchronous is the logical semantics: a message sent at
// clock T is delivered stamped T+1 and wakes its recipient at T+1,
// exactly the CONGEST delivery rule. Removing the barrier changes when
// work happens on the wall clock, not what the algorithm observes — so
// Rounds, Messages and ByKind come out bit-identical to the lockstep
// engine, and the cross-engine equivalence the facade promises (same
// MST, message totals within the paper's bounds, reproducible per
// scheduler seed) holds with room to spare. The seed drives the order
// in which execution slices are claimed; with one worker that pins the
// entire physical schedule (every DeliveryEvent, in order), and with
// more it still makes the claim order reproducible run to run without
// being fixed across seeds.
//
// Determinism of the delivered inboxes does not depend on the
// schedule: a port has exactly one sender, the sender's messages enter
// the destination queue in one flush (contiguous, in send order), a
// queue only ever holds messages of one stamp, and the exec phase's
// stable sort by port canonicalizes cross-port order. Statistics are
// counted under the destination shard's lock. The schedule therefore
// affects event interleaving only, which is exactly what the
// seeded-determinism regression gate asserts.

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"congestmst/internal/congest"
)

// asyncRun is the per-run state of the windowed delivery path. It is
// created by RunAsync and reached through Engine.async; the
// barrier engines leave the field nil.
type asyncRun struct {
	// rng orders each window's execution slices; seeding it makes the
	// physical schedule reproducible. Deterministic by construction:
	// the stream is consumed only by the coordinator, between windows.
	rng *rand.Rand

	// order lists the shards with active vertices this window, in the
	// shuffled order workers claim them; execCur is the claim cursor
	// and execDone counts completed slices.
	order    []int
	execCur  atomic.Int64
	execDone atomic.Int64

	// inflight counts messages flushed into delivery queues and not
	// yet drained into an inbox: the acknowledgment half of the
	// quiescence detector (the other half is execDone == len(order)).
	inflight atomic.Int64

	// delivered accumulates this window's drained messages for the
	// QuiesceEvent; windows counts closed windows over the run.
	delivered atomic.Int64
	windows   int64

	// Per-shard delivery state. queues[d] holds messages bound for
	// shard d's vertices, guarded by qmu[d]; spare[d] is the drained
	// buffer ping-ponged back under shardMu[d]. dirty[d] flags a
	// non-empty queue; execed[d] gates draining until shard d's own
	// execution slice finished this window, so a T+1-stamped message
	// can never leak into a T wake. shardMu[d] serializes exec and
	// drain on shard d's vertex state (inboxes, park flags, counters).
	qmu     []sync.Mutex
	shardMu []sync.Mutex
	dirty   []atomic.Bool
	execed  []atomic.Bool
	queues  [][]congest.Delivery
	spare   [][]congest.Delivery

	// obs is the configured Observer's AsyncObserver side, nil when it
	// has none.
	obs congest.AsyncObserver
}

// RunAsync executes one Fiber per vertex on the windowed
// delivery path: no global round barrier, per-shard delivery queues
// drained concurrently with execution, termination per window by
// acknowledgment-counting quiescence. seed fixes the scheduler's
// slice-claim order, making the physical delivery schedule (and every
// observer event stream) reproducible; Stats are bit-identical to the
// same algorithm on any other engine regardless of seed.
// Cancellation is checked at window boundaries — parked fibers are
// plain structs, so teardown drops them wholesale.
func (e *Engine) RunAsync(ctx context.Context, factory func(id int) congest.Fiber, seed uint64) (*congest.Stats, error) {
	if stats, err, ok := e.begin(ctx, factory); !ok {
		return stats, err
	}
	nsh := len(e.shards)
	a := &asyncRun{
		rng:     rand.New(rand.NewSource(int64(seed))), //lint:allow noclock seeded scheduler: reproducible by construction
		order:   make([]int, 0, nsh),
		qmu:     make([]sync.Mutex, nsh),
		shardMu: make([]sync.Mutex, nsh),
		dirty:   make([]atomic.Bool, nsh),
		execed:  make([]atomic.Bool, nsh),
		queues:  make([][]congest.Delivery, nsh),
		spare:   make([][]congest.Delivery, nsh),
	}
	if ao, ok := e.cfg.Observer.(congest.AsyncObserver); ok {
		a.obs = ao
	}
	e.async = a
	return e.runLoop(ctx)
}

// playWindow plays one delivery window: shuffle the active shards into
// a claim order and hand the window to the worker pool (or run it
// inline when sparse) until the quiescence detector closes it. The
// caller (runLoop) advances the clock between windows, exactly as it
// advances rounds.
func (e *Engine) playWindow() {
	a := e.async
	a.order = a.order[:0]
	for i, due := range e.due {
		if due > 0 {
			a.order = append(a.order, i)
		}
		// Shards with nothing to execute are drainable immediately:
		// nothing of theirs can run at the current clock.
		a.execed[i].Store(due == 0)
	}
	if e.active == 0 {
		return
	}
	var w0 time.Time
	if a.obs != nil {
		w0 = time.Now() //lint:allow noclock observer window wall-clock sampling, off the stats path
	}
	a.rng.Shuffle(len(a.order), func(i, j int) { a.order[i], a.order[j] = a.order[j], a.order[i] })
	a.execCur.Store(0)
	a.execDone.Store(0)
	a.delivered.Store(0)
	if e.active < parallelThreshold || e.nworkers == 1 {
		a.work(e)
	} else {
		e.wg.Add(e.nworkers)
		for w := 0; w < e.nworkers; w++ {
			e.jobs <- phaseAsync
		}
		e.wg.Wait()
	}
	a.windows++
	if a.obs != nil {
		a.obs.OnQuiesce(congest.QuiesceEvent{
			Clock:     e.clock.Now(),
			Window:    a.windows,
			Executed:  int64(e.active),
			Delivered: a.delivered.Load(),
			WallNanos: time.Since(w0).Nanoseconds(), //lint:allow noclock observer window wall-clock sampling, off the stats path
		})
	}
}

// work is one worker's participation in the current window. Draining
// is preferred over executing — delivering sooner is the entire point
// of removing the barrier — and the loop exits when the quiescence
// detector fires: every execution slice done, no message in flight.
func (a *asyncRun) work(e *Engine) {
	for {
		if si, ok := a.claimDirty(e); ok {
			a.drain(e, si)
			continue
		}
		if i := int(a.execCur.Add(1)) - 1; i < len(a.order) {
			a.execOne(e, a.order[i])
			continue
		}
		// Quiescence check order matters: execDone first, inflight
		// second. Every inflight increment happens inside an execution
		// slice, so once all slices are seen complete no increment can
		// follow; a zero read then proves the queues are empty and
		// every delivery is visible (the drains' atomic decrements
		// order their inbox writes before this read).
		if a.execDone.Load() == int64(len(a.order)) && a.inflight.Load() == 0 {
			return
		}
		runtime.Gosched()
	}
}

// claimDirty finds a shard with queued deliveries whose execution
// slice has finished this window and claims its dirty flag. A dirty
// shard still executing is skipped (the flag stays set), preserving
// the rule that a message never wakes a vertex in the window it was
// sent.
func (a *asyncRun) claimDirty(e *Engine) (int, bool) {
	for si := range a.dirty {
		if a.dirty[si].Load() && a.execed[si].Load() && a.dirty[si].CompareAndSwap(true, false) {
			return si, true
		}
	}
	return 0, false
}

// execOne steps shard si's wake set under its shard lock, flushing
// each vertex's sends as it yields, then publishes completion:
// execed[si] opens the shard for draining, execDone feeds the
// quiescence detector.
func (a *asyncRun) execOne(e *Engine, si int) {
	var t0 time.Time
	if e.sample {
		t0 = time.Now() //lint:allow noclock shard busy-time sampling, armed only for ShardObservers
	}
	a.shardMu[si].Lock()
	s := e.shards[si]
	now := e.clock.Now()
	for v := range s.Woken {
		s.Step(v, now)
		a.flush(s)
	}
	if e.sample {
		s.BusyNanos += time.Since(t0).Nanoseconds() //lint:allow noclock shard busy-time sampling, armed only for ShardObservers
	}
	a.shardMu[si].Unlock()
	a.execed[si].Store(true)
	a.execDone.Add(1)
}

// flush moves one vertex's staged sends from the source shard's rows
// into the destination queues, incrementing the in-flight counter
// before a message becomes visible (so the detector can never see zero
// with a message enqueued) and raising the destination's dirty flag
// after. Called after every yield, so a port's messages land
// contiguously, in send order.
func (a *asyncRun) flush(s *congest.Shard) {
	for d, b := range s.Out {
		if len(b) == 0 {
			continue
		}
		a.inflight.Add(int64(len(b)))
		a.qmu[d].Lock()
		a.queues[d] = append(a.queues[d], b...)
		a.qmu[d].Unlock()
		a.dirty[d].Store(true)
		s.Out[d] = b[:0]
	}
}

// drain delivers shard si's queued messages into its vertices'
// inboxes one at a time, waking parked recipients into the next
// window's wake set. The shard lock makes drains exclusive against
// each other and against the shard's own (already finished) execution
// slice; the queue swap under qmu keeps senders flushing concurrently
// into a fresh buffer. The in-flight decrement is the acknowledgment:
// it happens only after every message of the batch is in an inbox.
func (a *asyncRun) drain(e *Engine, si int) {
	var t0 time.Time
	if e.sample {
		t0 = time.Now() //lint:allow noclock shard busy-time sampling, armed only for ShardObservers
	}
	a.shardMu[si].Lock()
	a.qmu[si].Lock()
	batch := a.queues[si]
	a.queues[si] = a.spare[si][:0]
	a.qmu[si].Unlock()
	s := e.shards[si]
	for _, dv := range batch {
		s.Put(dv)
	}
	a.spare[si] = batch[:0]
	if e.sample {
		s.BusyNanos += time.Since(t0).Nanoseconds() //lint:allow noclock shard busy-time sampling, armed only for ShardObservers
	}
	a.shardMu[si].Unlock()
	if n := int64(len(batch)); n > 0 {
		a.delivered.Add(n)
		a.inflight.Add(-n)
		if a.obs != nil {
			a.obs.OnDelivery(congest.DeliveryEvent{
				Clock:    e.clock.Now() + 1,
				Shard:    si,
				Count:    int(n),
				InFlight: a.inflight.Load(),
			})
		}
	}
}
