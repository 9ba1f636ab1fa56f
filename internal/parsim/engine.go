// Package parsim is the parallel event-driven CONGEST engine: it runs
// the same congest.Fiber programs as internal/congest and reports
// bit-identical Rounds, Messages and per-kind counters, but is built
// for million-vertex graphs.
//
// Every vertex lives in one of several congest.Shards, the executor
// the lockstep engine runs on too, so the vertex record, the Context,
// the park switch and the delivery arena are the same code on both.
// What this package adds is the round structure around them:
//
//   - Sparse activation. A round only touches vertices that have
//     pending deliveries or an expired park deadline. Each shard keeps
//     its own bitmap of the vertices due next round and its own
//     calendar; the coordinator advances the round to the earliest
//     Next of any shard, so a quiet stretch of the execution costs a
//     look at the earliest calendar bucket per shard, not n vertex
//     wakeups.
//
//   - A fixed worker pool over the shards. Vertices are split into
//     contiguous shards (several per worker, claimed atomically, so a
//     shard with a hot spot is stolen around); each round runs two
//     phases: execute (each shard plays its wake set, staging sends in
//     one row per destination shard) and deliver (each shard receives,
//     in ascending source order, the column of rows staged for it and
//     scatters them into its arena). No locks are taken on the hot
//     path; all cross-shard traffic moves through the rows between two
//     barriers.
//
//   - Deterministic merge. Within a shard, vertices are played in
//     ascending id and their sends staged in send order; a destination
//     shard consumes source rows in ascending source-shard order.
//     Per-port FIFO order is therefore exactly the sender's send
//     order, and inboxes (stably sorted by port on wakeup) are
//     byte-for-byte what the lockstep engine delivers. Statistics are
//     sums over the same deliveries, so they match bit for bit.
//
// Rounds with fewer active vertices than a threshold bypass the pool
// and run inline on the coordinator: the long sparse tail of an
// execution (BFS fronts, fragment chains) keeps lockstep-like latency
// while the wide rounds (Boruvka floods, forest phases) fan out.
//
// Vertex programs are congest.Fiber state machines executed inline on
// the shard workers: a parked vertex is its state struct plus a
// calendar entry — no goroutine, no stack, no channel — so a
// million-vertex run costs the worker pool and nothing per vertex.
package parsim

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"congestmst/internal/congest"
	"congestmst/internal/graph"
)

// Config parameterizes an Engine. The Bandwidth and MaxRounds fields
// have the same meaning and defaults as congest.Config.
type Config struct {
	// Bandwidth is b: messages per edge per direction per round.
	// Zero means 1.
	Bandwidth int
	// MaxRounds aborts runs that exceed this many rounds. Zero means
	// 100 million.
	MaxRounds int64
	// Workers is the size of the worker pool. Zero means GOMAXPROCS.
	Workers int
	// Observer, when non-nil, receives one RoundEvent per played round
	// (and the final totals). When it also implements
	// congest.ShardObserver, the engine samples per-shard busy time and
	// emits one ShardSample per shard at the end of the run, so load
	// skew across shards is visible. Nil costs one pointer check per
	// round; the busy-time sampling is only armed for ShardObservers.
	Observer congest.Observer
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// shardsPerWorker trades steal granularity against per-round scan
// cost; parallelThreshold is the active-vertex count below which a
// round runs inline on the coordinator instead of fanning out.
const (
	shardsPerWorker   = 4
	parallelThreshold = 512
)

type phaseKind int32

const (
	phaseExec phaseKind = iota
	phaseDeliver
	// phaseAsync is not a phase over shards but a whole delivery
	// window: a worker receiving it joins asyncRun.work until the
	// quiescence detector closes the window (async.go).
	phaseAsync
)

// Engine executes one program on one graph. Engines are single-use.
type Engine struct {
	cfg Config

	// shards are the run's executors, each a contiguous vertex range;
	// nil once the run ended. Every field of a shard is owned by the
	// shard: the exec phase touches it from its own worker, the
	// deliver phase too, reading only the column of rows the other
	// shards staged for it, and the two phases are separated by a
	// barrier.
	shards []*congest.Shard

	// clock is the round counter (congest.Clock): the round index under
	// the barrier engines, the α-synchronizer's window frontier under
	// the Async engine.
	clock *congest.Clock

	// async, when non-nil, switches runLoop onto the windowed
	// delivery path (async.go); the barrier engines never touch it.
	async *asyncRun

	// sample arms per-shard busy-time measurement (Observer implements
	// congest.ShardObserver); due holds each shard's wake-set size in
	// the round being played and active their sum, recorded for the
	// round event.
	sample bool
	due    []int
	active int

	nworkers int
	jobs     chan phaseKind
	cursor   atomic.Int64
	wg       sync.WaitGroup

	mu      sync.Mutex
	failErr error
	aborted atomic.Bool
}

// NewEngine prepares a parallel engine for g under cfg.
func NewEngine(g *graph.Graph, cfg Config) *Engine {
	n := g.N()
	w := cfg.workers()
	if w < 1 {
		w = 1
	}
	if w > n && n > 0 {
		w = n
	}
	nShards := min(max(w*shardsPerWorker, 1), max(n, 1))
	shardSize := max((n+nShards-1)/nShards, 1)
	nShards = max((n+shardSize-1)/shardSize, 1)
	e := &Engine{
		cfg:      cfg,
		shards:   make([]*congest.Shard, nShards),
		due:      make([]int, nShards),
		nworkers: w,
		jobs:     make(chan phaseKind),
		clock:    congest.NewClock(cfg.MaxRounds),
	}
	for i := range e.shards {
		e.shards[i] = congest.NewShard(g.CSR(), i, shardSize, cfg.Bandwidth, e.fail)
	}
	return e
}

// begin guards single use and pre-cancelled contexts for both run
// entry points, and installs the fibers; ok reports whether the run
// should proceed.
func (e *Engine) begin(ctx context.Context, factory func(id int) congest.Fiber) (*congest.Stats, error, bool) {
	if e.shards == nil {
		return nil, congest.ErrReused, false
	}
	if err := ctx.Err(); err != nil {
		e.release()
		return &congest.Stats{}, fmt.Errorf("parsim: run cancelled: %w", err), false
	}
	for _, s := range e.shards {
		s.Load(factory)
	}
	return nil, nil, true
}

// Run executes the fiber factory(v) on every vertex v and returns once
// every fiber parked Done (or the run fails). Start and Resume are
// called inline on the shard workers, and a parked vertex costs its
// state struct. Rounds, Messages and ByKind are bit-identical to what
// congest.Engine reports for the same fibers and graph.
func (e *Engine) Run(factory func(id int) congest.Fiber) (*congest.Stats, error) {
	return e.RunContext(context.Background(), factory)
}

// RunContext is Run under a context: cancellation (or a deadline) is
// checked at every round boundary. There are no vertex goroutines to
// unwind — the engine drops every fiber and returns, leaving zero
// vertex state live, with an error wrapping ctx.Err().
func (e *Engine) RunContext(ctx context.Context, factory func(id int) congest.Fiber) (*congest.Stats, error) {
	if stats, err, ok := e.begin(ctx, factory); !ok {
		return stats, err
	}
	for _, s := range e.shards {
		s.Reserve()
	}
	return e.runLoop(ctx)
}

// release hands every shard's buffers back to the pool and drops the
// shards, and with them every fiber and inbox.
func (e *Engine) release() {
	for _, s := range e.shards {
		s.Release()
	}
	e.shards = nil
}

// runLoop is the shared round loop: release everyone in round 0, then
// play rounds and advance the clock until every program finished, the
// context dies, or the run fails.
func (e *Engine) runLoop(ctx context.Context) (*congest.Stats, error) {
	for w := 0; w < e.nworkers; w++ {
		go e.worker()
	}
	defer close(e.jobs)

	obs := e.cfg.Observer
	if obs != nil {
		_, e.sample = obs.(congest.ShardObserver)
	}
	e.wake()
	for {
		var roundStart time.Time
		if obs != nil {
			roundStart = time.Now() //lint:allow noclock observer round-wall-clock sampling, off the stats path
		}
		if e.async != nil {
			e.playWindow()
		} else {
			e.playRound()
		}
		if obs != nil && e.active > 0 {
			// The phases barrier in playRound (or the quiescence
			// detector in playWindow) ordered every shard's counter
			// writes before this read.
			var cum int64
			for _, s := range e.shards {
				cum += s.Messages
			}
			obs.OnRound(congest.RoundEvent{
				Round:     e.clock.Now(),
				Active:    e.active,
				Messages:  cum,
				WallNanos: time.Since(roundStart).Nanoseconds(), //lint:allow noclock observer round-wall-clock sampling, off the stats path
			})
		}
		if e.aborted.Load() || e.live() == 0 {
			break
		}
		if err := ctx.Err(); err != nil {
			e.fail(fmt.Errorf("parsim: run cancelled: %w", err))
			break
		}
		if err := e.advance(); err != nil {
			e.fail(err)
			break
		}
	}

	stats := &congest.Stats{}
	for _, s := range e.shards {
		s.AddTo(stats)
	}
	if obs != nil {
		// Pin the cumulative total to Stats.Messages (exact even on an
		// aborted run), then surface per-shard skew.
		obs.OnRound(congest.RoundEvent{Round: stats.Rounds, Messages: stats.Messages})
		if so, ok := obs.(congest.ShardObserver); ok {
			for i, s := range e.shards {
				so.OnShardSample(s.Sample(i))
			}
		}
	}
	// Workers are idle behind the jobs channel here, so the shards are
	// quiescent.
	e.release()
	e.mu.Lock()
	defer e.mu.Unlock()
	return stats, e.failErr
}

// live counts the programs still running.
func (e *Engine) live() int {
	n := 0
	for _, s := range e.shards {
		n += s.Live()
	}
	return n
}

// playRound executes one round (exec + deliver phases) over the
// shards' wake sets.
func (e *Engine) playRound() {
	if e.active == 0 {
		return
	}
	e.runPhase(phaseExec, e.active)
	e.runPhase(phaseDeliver, e.active)
}

// runPhase runs one phase over all shards: inline on the coordinator
// for sparse rounds, on the worker pool for wide ones.
func (e *Engine) runPhase(ph phaseKind, totalActive int) {
	if totalActive < parallelThreshold || e.nworkers == 1 {
		for i := range e.shards {
			e.runShardPhase(ph, i)
		}
		return
	}
	e.cursor.Store(0)
	e.wg.Add(e.nworkers)
	for w := 0; w < e.nworkers; w++ {
		e.jobs <- ph
	}
	e.wg.Wait()
}

func (e *Engine) worker() {
	for ph := range e.jobs {
		if ph == phaseAsync {
			e.async.work(e)
			e.wg.Done()
			continue
		}
		for {
			i := int(e.cursor.Add(1)) - 1
			if i >= len(e.shards) {
				break
			}
			e.runShardPhase(ph, i)
		}
		e.wg.Done()
	}
}

func (e *Engine) runShardPhase(ph phaseKind, i int) {
	var t0 time.Time
	if e.sample {
		t0 = time.Now() //lint:allow noclock shard busy-time sampling, armed only for ShardObservers
	}
	s := e.shards[i]
	if ph == phaseDeliver {
		// The column of rows the shards staged for shard i, merged in
		// ascending source order. Most rows of a sparse round are empty.
		for _, src := range e.shards {
			if len(src.Out[i]) > 0 {
				s.Receive(&src.Out[i])
			}
		}
		s.Deliver()
	} else if e.due[i] > 0 {
		s.Play(e.clock.Now())
	}
	if e.sample {
		s.BusyNanos += time.Since(t0).Nanoseconds() //lint:allow noclock shard busy-time sampling, armed only for ShardObservers
	}
}

// advance moves the clock to the next round (or delivery window) with
// work, the earliest any shard reports, and collects the wake sets.
func (e *Engine) advance() error {
	now := e.clock.Now()
	next := congest.Forever
	for _, s := range e.shards {
		// No shard can have work before now+1, so the first shard due
		// then settles it and the rest need not consult their calendars.
		if next = min(next, s.Next(now)); next == now+1 {
			break
		}
	}
	if err := e.clock.Advance(next); err != nil {
		return err
	}
	e.wake()
	return nil
}

// wake collects every shard's wake set for the current round; the
// shards read them back in ascending order inside the exec phase.
func (e *Engine) wake() {
	e.active = 0
	for i, s := range e.shards {
		e.due[i] = s.Wake(e.clock.Now())
		e.active += e.due[i]
	}
}

func (e *Engine) fail(err error) {
	e.mu.Lock()
	if e.failErr == nil {
		e.failErr = err
	}
	e.mu.Unlock()
	e.aborted.Store(true)
}
