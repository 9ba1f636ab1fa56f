// Package parsim is the parallel event-driven CONGEST engine: it runs
// the same congest.Fiber programs as internal/congest and reports
// bit-identical Rounds, Messages and per-kind counters, but is built
// for million-vertex graphs.
//
// Three things distinguish it from the lockstep engine:
//
//   - Sparse activation. A round only touches vertices that have
//     pending deliveries or an expired park deadline. Wake times
//     live in per-round ready lists plus a calendar heap, so a quiet
//     stretch of the execution costs one heap pop, not n vertex
//     wakeups.
//
//   - A fixed worker pool over vertex shards. Vertices are split into
//     contiguous shards (several per worker, claimed atomically, so a
//     shard with a hot spot is stolen around); each round runs two
//     phases: execute (resume active vertices, collect their outboxes
//     into per-shard arenas) and deliver (each shard merges, in fixed
//     source order, every other shard's bucket destined to it). No
//     locks are taken on the hot path; all cross-shard traffic moves
//     through the arena buckets between two barriers.
//
//   - Deterministic merge. Within a shard, vertices are processed in
//     ascending id; outboxes are staged in send order; a destination
//     shard consumes source buckets in ascending source-shard order.
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
	"cmp"
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
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

// errAborted unwinds a fiber call after a failure; it never escapes
// the package.
var errAborted = fmt.Errorf("parsim: run aborted")

type outMsg struct {
	port int32
	msg  congest.Message
}

// delivery is one staged message: destination vertex, destination
// port, payload.
type delivery struct {
	to   int32
	port int32
	msg  congest.Message
}

// node is the engine-side state of one vertex, lean enough that a
// million parked fibers cost tens of megabytes. Every field is owned
// by the vertex's own shard: the exec phase touches it from the
// shard's processing loop, the deliver phase from the destination
// shard's merge loop — the same shard, since a vertex's inbox belongs
// to the shard that contains the vertex — and the two phases are
// separated by a barrier.
type node struct {
	fib congest.Fiber // the vertex program (nil once done)

	inbox []congest.Inbound

	started bool // Start has run
	queued  bool
	parked  bool
	done    bool
	gen     int64
}

// shard owns a contiguous vertex range and this round's arenas.
type shard struct {
	lo, hi int

	// fc is the execution context, shared by every vertex of the
	// shard (exec is inline and sequential within a shard).
	fc fiberCtx

	// active/nextActive are this and next round's wake sets (own
	// vertices only, sorted ascending before execution).
	active     []int
	nextActive []int

	// buckets[d] stages messages from this shard to shard d; the
	// backing arrays are reused from round to round.
	buckets [][]delivery

	// Delivery arena. A fiber's msgs argument is engine-owned and
	// valid only during the call, so one round's deliveries to this
	// shard live in a single flat array (written by the deliver phase,
	// fully consumed by the next exec phase) and every vertex's inbox
	// is a view into it: zero allocations per round. cnt/start are
	// per-local-vertex scatter state and touched lists the local
	// indices with deliveries this round; all four are reused for the
	// life of the run.
	inArena []congest.Inbound
	cnt     []int32
	start   []int32
	touched []int32

	// arena is the pooled backing-store record the slices above were
	// drawn from; runLoop returns it to fiberArenas when the run ends.
	arena *fiberArena

	// timers stages calendar entries for the coordinator.
	timers []congest.TimerEntry

	// Per-shard statistics, merged once at the end of the run.
	messages int64
	byKind   [256]int64

	// Observability: vertex resumptions handled, and (when the
	// configured Observer implements ShardObserver) wall-clock spent in
	// this shard's exec and deliver phases. Each shard is touched by
	// exactly one worker per phase, so plain fields suffice.
	execs     int64
	busyNanos int64

	finished int
}

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
	g   *graph.Graph
	csr *graph.CSR
	cfg Config

	nodes     []node
	shards    []shard
	shardSize int

	// clock is the shared logical clock + park calendar
	// (congest.Clock): the round index under the barrier engines, the
	// α-synchronizer's window frontier under the Async engine.
	clock       *congest.Clock
	statsRounds int64

	// async, when non-nil, switches runLoop onto the windowed
	// delivery path (async.go); the barrier engines never touch it.
	async *asyncRun

	// sample arms per-shard busy-time measurement (Observer implements
	// congest.ShardObserver); lastActive is the wake-set size of the
	// round just played, recorded for the round event.
	sample     bool
	lastActive int

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
	nShards := w * shardsPerWorker
	if nShards > n {
		nShards = n
	}
	if nShards < 1 {
		nShards = 1
	}
	shardSize := (n + nShards - 1) / nShards
	if shardSize < 1 {
		shardSize = 1
	}
	nShards = (n + shardSize - 1) / shardSize
	if nShards < 1 {
		nShards = 1
	}
	e := &Engine{
		g:         g,
		csr:       g.CSR(),
		cfg:       cfg,
		nodes:     make([]node, n),
		shards:    make([]shard, nShards),
		shardSize: shardSize,
		nworkers:  w,
		jobs:      make(chan phaseKind),
		clock:     congest.NewClock(cfg.maxRounds()),
	}
	for i := range e.shards {
		s := &e.shards[i]
		s.lo = i * shardSize
		s.hi = min(s.lo+shardSize, n)
		s.buckets = make([][]delivery, nShards)
	}
	return e
}

func (e *Engine) shardOf(v int) int { return v / e.shardSize }

// begin guards single use and pre-cancelled contexts for both run
// entry points; ok reports whether the run should proceed.
func (e *Engine) begin(ctx context.Context) (*congest.Stats, error, bool) {
	if e.nodes == nil && e.g.N() > 0 {
		return nil, congest.ErrReused, false
	}
	if err := ctx.Err(); err != nil {
		e.nodes = nil
		return &congest.Stats{}, fmt.Errorf("parsim: run cancelled: %w", err), false
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
	if stats, err, ok := e.begin(ctx); !ok {
		return stats, err
	}
	n := e.g.N()
	for v := 0; v < n; v++ {
		e.nodes[v].fib = factory(v)
	}
	// Pre-size the delivery arenas at their b=1 worst case — one
	// message per arc, which is exactly what a protocol's identity
	// exchange or a Boruvka flood produces. Growing these to
	// hundreds of megabytes through append doubling would leave an
	// equal weight of garbage behind at the moment of peak demand;
	// sized up front they are part of the stable live set and the
	// steady state allocates nothing per round. (Runs with b > 1 that
	// actually exceed an arc's single slot still grow organically.)
	pairArcs := make([][]int64, len(e.shards))
	for i := range pairArcs {
		pairArcs[i] = make([]int64, len(e.shards))
	}
	for v := 0; v < n; v++ {
		src := e.shardOf(v)
		for pos := e.csr.Off[v]; pos < e.csr.Off[v+1]; pos++ {
			pairArcs[src][e.shardOf(int(e.csr.To[pos]))]++
		}
	}
	for i := range e.shards {
		s := &e.shards[i]
		s.fc.e = e
		// Engines are single-use but benchmark sweeps run many in
		// sequence; recycling the arenas through fiberArenas means the
		// second run of a sweep reuses the first one's delivery buffers
		// instead of re-allocating hundreds of megabytes per run.
		a := fiberArenas.Get().(*fiberArena)
		s.arena = a
		s.cnt = sizedInt32(a.cnt, s.hi-s.lo)
		s.start = sizedInt32(a.start, s.hi-s.lo)
		s.touched = a.touched[:0]
		if local := int(e.csr.Off[s.hi] - e.csr.Off[s.lo]); cap(a.inArena) >= local {
			s.inArena = a.inArena[:0]
		} else if local > 0 {
			s.inArena = make([]congest.Inbound, 0, local)
		}
		spare := a.buckets
		for d, c := range pairArcs[i] {
			if c == 0 {
				continue
			}
			var row []delivery
			if len(spare) > 0 {
				row, spare = spare[len(spare)-1][:0], spare[:len(spare)-1]
			}
			if int64(cap(row)) < c {
				row = make([]delivery, 0, c)
			}
			s.buckets[d] = row
		}
		a.cnt, a.start, a.inArena, a.touched, a.buckets = nil, nil, nil, nil, spare
	}
	return e.runLoop(ctx)
}

// fiberArena is the recyclable backing store of one shard's fiber-mode
// delivery state. Pooled across runs (and engines) within a process so
// that repeated fiber runs — a worker-count sweep, a benchmark, a
// service — stop paying the arena allocation after the first.
type fiberArena struct {
	cnt, start []int32
	touched    []int32
	inArena    []congest.Inbound
	buckets    [][]delivery // spare rows, capacity-preserving
}

var fiberArenas = sync.Pool{New: func() any { return new(fiberArena) }}

// sizedInt32 returns a zeroed int32 slice of length n, reusing buf's
// backing array when it is large enough.
func sizedInt32(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// runLoop is the shared round loop: release everyone in round 0, then
// play rounds and advance the clock until every program finished, the
// context dies, or the run fails.
func (e *Engine) runLoop(ctx context.Context) (*congest.Stats, error) {
	for w := 0; w < e.nworkers; w++ {
		go e.worker()
	}
	defer close(e.jobs)

	// Round 0: release everyone.
	for i := range e.shards {
		s := &e.shards[i]
		for v := s.lo; v < s.hi; v++ {
			s.active = append(s.active, v)
		}
	}

	obs := e.cfg.Observer
	if obs != nil {
		_, e.sample = obs.(congest.ShardObserver)
	}
	n := e.g.N()
	doneCount := 0
	for n > 0 {
		var roundStart time.Time
		if obs != nil {
			roundStart = time.Now() //lint:allow noclock observer round-wall-clock sampling, off the stats path
		}
		if e.async != nil {
			doneCount += e.playWindow()
		} else {
			doneCount += e.playRound()
		}
		if obs != nil && e.lastActive > 0 {
			// The phases barrier in playRound (or the quiescence
			// detector in playWindow) ordered every shard's counter
			// writes before this read.
			var cum int64
			for i := range e.shards {
				cum += e.shards[i].messages
			}
			obs.OnRound(congest.RoundEvent{
				Round:     e.clock.Now(),
				Active:    e.lastActive,
				Messages:  cum,
				WallNanos: time.Since(roundStart).Nanoseconds(), //lint:allow noclock observer round-wall-clock sampling, off the stats path
			})
		}
		if e.aborted.Load() || doneCount == n {
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

	stats := &congest.Stats{Rounds: e.statsRounds}
	for i := range e.shards {
		s := &e.shards[i]
		stats.Messages += s.messages
		for k, c := range s.byKind {
			stats.ByKind[k] += c
		}
	}
	if obs != nil {
		// Pin the cumulative total to Stats.Messages (exact even on an
		// aborted run), then surface per-shard skew.
		obs.OnRound(congest.RoundEvent{Round: stats.Rounds, Messages: stats.Messages})
		if so, ok := obs.(congest.ShardObserver); ok {
			for i := range e.shards {
				s := &e.shards[i]
				so.OnShardSample(congest.ShardSample{
					Shard:     i,
					Vertices:  s.hi - s.lo,
					Execs:     s.execs,
					Messages:  s.messages,
					BusyNanos: s.busyNanos,
				})
			}
		}
	}
	// Workers are idle behind the jobs channel here, so the shard
	// arenas are quiescent: hand their backing stores back to the
	// pool for the next fiber run in this process.
	for i := range e.shards {
		s := &e.shards[i]
		a := s.arena
		if a == nil {
			continue
		}
		s.arena = nil
		a.cnt, s.cnt = s.cnt, nil
		a.start, s.start = s.start, nil
		a.inArena, s.inArena = s.inArena[:0], nil
		a.touched, s.touched = s.touched[:0], nil
		spare := a.buckets[:0]
		for d, row := range s.buckets {
			if row != nil {
				spare = append(spare, row[:0])
				s.buckets[d] = nil
			}
		}
		a.buckets = spare
		fiberArenas.Put(a)
	}
	e.nodes = nil // single use; drops every fiber and inbox
	e.mu.Lock()
	defer e.mu.Unlock()
	return stats, e.failErr
}

// playRound executes one round (exec + deliver phases) over the
// current per-shard active sets and returns how many programs
// finished.
func (e *Engine) playRound() int {
	total := 0
	for i := range e.shards {
		total += len(e.shards[i].active)
	}
	e.lastActive = total
	if total == 0 {
		return 0
	}
	if now := e.clock.Now(); now > e.statsRounds {
		e.statsRounds = now
	}
	e.runPhase(phaseExec, total)
	e.runPhase(phaseDeliver, total)
	return e.collectShards()
}

// collectShards gathers the finished counts and staged calendar
// entries out of every shard after a round (or window) completes.
func (e *Engine) collectShards() int {
	finished := 0
	for i := range e.shards {
		s := &e.shards[i]
		finished += s.finished
		s.finished = 0
		for _, t := range s.timers {
			e.clock.Schedule(t)
		}
		s.timers = s.timers[:0]
	}
	return finished
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
	if ph == phaseExec {
		e.shards[i].execs += int64(len(e.shards[i].active))
	}
	if ph == phaseDeliver {
		e.deliverShard(i)
	} else {
		e.execShard(i)
	}
	if e.sample {
		e.shards[i].busyNanos += time.Since(t0).Nanoseconds() //lint:allow noclock shard busy-time sampling, armed only for ShardObservers
	}
}

// sortInbox stable-sorts one wake's deliveries by port. The generic
// sort allocates nothing, unlike the reflective sort.SliceStable,
// which matters at millions of wakes per run.
func sortInbox(msgs []congest.Inbound) {
	if len(msgs) > 1 {
		slices.SortStableFunc(msgs, func(a, b congest.Inbound) int { return cmp.Compare(a.Port, b.Port) })
	}
}

// execShard runs the shard's active fibers one at a time, in ascending
// vertex order: each Start/Resume runs inline on this worker, its sends
// drain from the shard's shared context straight into the buckets, and
// its Park is recorded. Serializing within the shard keeps the
// deterministic-merge contract by construction; parallelism comes from
// the other shards.
func (e *Engine) execShard(i int) {
	s := &e.shards[i]
	if len(s.active) == 0 {
		return
	}
	// The wake set accumulated in arbitrary (deliver, then timer)
	// order; ascending id order is part of the deterministic-merge
	// contract. Sorting here, not on the coordinator, keeps the
	// O(active log active) work inside the parallel phase.
	sort.Ints(s.active)
	fc := &s.fc
	now := e.clock.Now()
	for _, id := range s.active {
		nd := &e.nodes[id]
		nd.queued = false
		nd.parked = false
		msgs := nd.inbox
		nd.inbox = nil
		sortInbox(msgs)
		fc.point(id, now)
		park, ok := e.callFiber(nd, fc, msgs)
		if !ok {
			// The fiber died mid-call: discard its partial outbox.
			for _, om := range fc.outbox {
				fc.sentN[om.port] = 0
			}
			fc.outbox = fc.outbox[:0]
			e.retire(s, nd)
			continue
		}
		for _, om := range fc.outbox {
			pos := e.csr.Off[id] + int64(om.port)
			to := e.csr.To[pos]
			s.buckets[e.shardOf(int(to))] = append(s.buckets[e.shardOf(int(to))],
				delivery{to: to, port: e.csr.PeerPort[pos], msg: om.msg})
			fc.sentN[om.port] = 0
		}
		fc.outbox = fc.outbox[:0]
		if e.async != nil {
			// Async mode: one flush per source vertex moves its staged
			// sends into the destination queues, so a port's messages
			// sit contiguously in its queue in send order and other
			// shards can start draining them while this slice is still
			// executing.
			e.async.flush(e, s)
		}
		if park == congest.ParkDone {
			e.retire(s, nd)
			continue
		}
		target := park.Deadline(now)
		if target <= now {
			e.fail(fmt.Errorf("parsim: fiber %d parked for round %d at round %d", id, target, now))
			e.retire(s, nd)
			continue
		}
		e.park(s, id, target)
	}
	s.active = s.active[:0]
}

// callFiber runs one Start/Resume under the engine's panic protocol:
// errAborted unwinds silently, any other panic fails the run; ok
// reports whether the fiber survived the call.
func (e *Engine) callFiber(nd *node, fc *fiberCtx, msgs []congest.Inbound) (park congest.Park, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if r != errAborted { //nolint:errorlint // sentinel identity
				e.fail(fmt.Errorf("parsim: processor %d panicked: %v", fc.id, r))
			}
			park, ok = congest.ParkDone, false
		}
	}()
	if !nd.started {
		nd.started = true
		return nd.fib.Start(fc), true
	}
	return nd.fib.Resume(fc, msgs), true
}

// retire marks a fiber finished and releases its program state.
func (e *Engine) retire(s *shard, nd *node) {
	nd.done = true
	nd.fib = nil
	s.finished++
}

// park records a vertex's next wake: the immediate ready list for
// round+1, the calendar for a later deadline, nothing for Forever.
func (e *Engine) park(s *shard, id int, target int64) {
	nd := &e.nodes[id]
	nd.parked = true
	nd.gen++
	switch {
	case target == e.clock.Now()+1:
		nd.queued = true
		s.nextActive = append(s.nextActive, id)
	case target < congest.Forever:
		s.timers = append(s.timers, congest.TimerEntry{Round: target, ID: id, Gen: nd.gen})
	}
}

// deliverShard merges every shard's bucket destined to shard i, in
// ascending source-shard order: count, then scatter this round's
// deliveries into the shard's flat arena and hand each vertex a view of
// its run, queueing freshly-delivered vertices for the next round.
// Per-port FIFO order holds — a port has exactly one sender, whose
// messages sit contiguously in one source bucket in send order — and
// the exec phase's stable sort by port canonicalizes the rest, so
// inboxes are byte-identical to the lockstep engine's. The arena and
// scatter arrays are reused every round, so a million-message execution
// allocates nothing per wake. Bucket [src][i] is read by this shard
// alone, so it is also truncated here for reuse.
func (e *Engine) deliverShard(i int) {
	s := &e.shards[i]
	total := 0
	for src := range e.shards {
		bucket := e.shards[src].buckets[i]
		total += len(bucket)
		for _, dv := range bucket {
			idx := int(dv.to) - s.lo
			if s.cnt[idx] == 0 {
				s.touched = append(s.touched, int32(idx))
			}
			s.cnt[idx]++
			nd := &e.nodes[dv.to]
			if nd.parked && !nd.queued && !nd.done {
				nd.queued = true
				s.nextActive = append(s.nextActive, int(dv.to))
			}
		}
	}
	if total == 0 {
		return
	}
	// The arena grows to the widest round seen and stays there:
	// delivery width is bounded by b×arcs of the shard, and a stable
	// buffer beats a trimmed one under GC pacing — reallocating
	// burst-sized buffers every oscillation is what turns a lean live
	// set into a peak twice its size.
	if cap(s.inArena) < total {
		s.inArena = make([]congest.Inbound, total)
	}
	arena := s.inArena[:total]
	off := int32(0)
	for _, idx := range s.touched {
		s.start[idx] = off
		off += s.cnt[idx]
	}
	for src := range e.shards {
		bucket := e.shards[src].buckets[i]
		for _, dv := range bucket {
			idx := int(dv.to) - s.lo
			arena[s.start[idx]] = congest.Inbound{Port: int(dv.port), Msg: dv.msg}
			s.start[idx]++
			s.messages++
			s.byKind[dv.msg.Kind]++
		}
		e.shards[src].buckets[i] = bucket[:0]
	}
	for _, idx := range s.touched {
		end := s.start[idx]
		beg := end - s.cnt[idx]
		// A done vertex's deliveries count (they did arrive) but are
		// never read, and a view would pin a trimmed arena.
		if nd := &e.nodes[s.lo+int(idx)]; !nd.done {
			nd.inbox = arena[beg:end:end]
		}
		s.cnt[idx] = 0
		s.start[idx] = 0
	}
	s.touched = s.touched[:0]
}

// advance moves the clock to the next round (or delivery window) with
// work: now+1 if any vertex is due (fresh deliveries or an explicit
// Step), otherwise a fast-forward to the earliest live calendar entry.
// Calendar entries expiring at or before the new time fire together
// with the message wakeups.
func (e *Engine) advance() error {
	due := false
	for i := range e.shards {
		if len(e.shards[i].nextActive) > 0 {
			due = true
			break
		}
	}
	if err := e.clock.Advance(due, e.liveTimer); err != nil {
		return err
	}
	if due {
		for i := range e.shards {
			s := &e.shards[i]
			s.active, s.nextActive = s.nextActive, s.active[:0]
		}
	}
	e.clock.PopDue(e.liveTimer, func(t congest.TimerEntry) {
		e.nodes[t.ID].queued = true // guards against double release
		s := &e.shards[e.shardOf(t.ID)]
		s.active = append(s.active, t.ID)
	})
	return nil
}

// liveTimer reports whether a calendar entry still represents a parked
// vertex (stale entries survive early wakes; the gen check kills them).
func (e *Engine) liveTimer(t congest.TimerEntry) bool {
	nd := &e.nodes[t.ID]
	return !nd.done && nd.parked && !nd.queued && nd.gen == t.Gen
}

func (e *Engine) fail(err error) {
	e.mu.Lock()
	if e.failErr == nil {
		e.failErr = err
	}
	e.mu.Unlock()
	e.aborted.Store(true)
}
