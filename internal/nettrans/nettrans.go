// Package nettrans is the Cluster engine: it executes the repository's
// CONGEST algorithms over real TCP connections (loopback) and reports
// Rounds, Messages and per-kind counters bit-identical to the in-process
// simulators, at graph sizes the old one-connection-per-edge demo could
// never reach.
//
// Two ideas make the transport load-bearing instead of a footnote:
//
//   - Multiplexed transport. Vertices are partitioned into contiguous
//     shards; each shard pair shares ONE TCP connection carrying
//     length-prefixed batches of frames tagged with (src, port). The
//     socket count is Shards·(Shards-1)/2 — independent of m — so a
//     10^4- or 10^6-edge graph needs six sockets with the default four
//     shards, where the per-edge transport exhausted the fd table near
//     m ≈ 10^3. The receiver resolves each (src, port) tag to its local
//     (vertex, port) through the shared graph.CSR, so a frame is 41
//     bytes regardless of graph size.
//
//   - Busy-set synchronizer. Instead of an end-of-round marker on every
//     edge every round (the alpha-synchronizer cost that scales with
//     idle rounds), a shard writes one batch to every peer only in the
//     agreed rounds where it has work. A batch carries the sender's own
//     calendar next — round+1 if a local vertex is due, else its
//     earliest live park deadline (a timer heap, mirroring
//     internal/parsim's calendar) — its count of still-running
//     programs, and the set of shards it sent frames to. Every shard
//     keeps the last (next, live) of every shard. The agreed next round
//     G′ is the minimum of all those next values, or G+1 when any batch
//     at G named a destination. The busy set B(G′) holds each shard
//     whose next is G′ plus, when G′ = G+1, each shard named as a
//     destination at G; round 0 has every shard busy. Every shard
//     computes the same set from the same batches. At round G only the
//     members of B(G) run fibers and write, and each shard reads only
//     from the other members. A shard outside B(G) runs no fiber and is
//     sent no frame, so its calendar and live count cannot change: its
//     last announcement stands in for the batch it no longer sends.
//     Wire traffic follows the shards that have work, idle rounds cost
//     nothing, and the agreed round sequence is exactly the one the
//     lockstep engine plays — which is why Stats.Rounds (and
//     Messages/ByKind, counted on delivery) match the simulators bit
//     for bit.
//
// Termination (the live total reaches zero) and deadlock (every next is
// Forever while programs still run) are agreed on by every shard from
// the same view; no separate control plane or FIN handshake is needed.
// Any transport failure — a broken connection that cannot be healed, a
// program panic, a bandwidth violation — closes every connection, which
// unwinds all shards and surfaces as an error from Run instead of a
// hang.
//
// A quiet shard that has not written for heartbeatEvery agreed rounds
// writes an announcement-only heartbeat. Every shard knows when each
// shard last wrote, so readers expect heartbeats exactly when they
// arrive. Heartbeats bound the replay log of each link: reading a
// peer's batch for round G proves the peer consumed all of ours for
// rounds before G, so a link keeps only what it wrote since it last
// heard from the peer, and replays all of it on a fresh connection
// after a fault (the receiver drops duplicates by round).
//
// No deadlock. A busy shard reads only from shards that write, so it
// can run ahead of quiet peers until it needs one's heartbeat. Take the
// shard at the lowest agreed round G. Every batch it waits for comes
// from a writer of round G, which is at G or beyond and writes before
// it reads, so the batch is written. Its own writes drain, because
// every link has a reader goroutine of its own that moves batches off
// the socket whatever its shard loop is doing, into a channel with room
// for the largest run-ahead plus a replay. So the lowest shard always
// makes progress, however far a lone busy shard runs ahead.
//
// Vertex programs are congest.Fiber state machines. Each shard loop
// calls its wake set's fibers inline, one at a time in ascending vertex
// order, through one shared Node context, so a run costs one goroutine
// per shard (plus one reader per link), never one per vertex.
package nettrans

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"congestmst/internal/congest"
	"congestmst/internal/graph"
)

// Config parameterizes a cluster run. Bandwidth and MaxRounds have the
// same meaning and defaults as congest.Config.
type Config struct {
	// Bandwidth is b: messages per edge per direction per round.
	// Zero means 1.
	Bandwidth int
	// MaxRounds aborts runs that exceed this many rounds. Zero means
	// 100 million.
	MaxRounds int64
	// Shards is the number of vertex shards. Each shard pair shares one
	// TCP connection, so the run holds Shards·(Shards-1)/2 sockets.
	// Zero means min(4, n); values above n are clamped to n.
	Shards int
	// MaxDials bounds the number of concurrent dials while the shard
	// mesh is established. Zero means 16.
	MaxDials int
	// DialTimeout bounds each connection attempt and its hello
	// exchange, and is the base of the accepting side's wait window.
	// Zero means 10 seconds.
	DialTimeout time.Duration
	// ReadTimeout bounds how long an inbound connection may take to
	// present its hello before the accept path drops it. Zero means
	// DialTimeout.
	ReadTimeout time.Duration
	// MaxDialAttempts bounds how many times one connection (dial or
	// redial after a mid-run fault) is attempted before the link is
	// declared dead with a *PeerError. Zero means 3.
	MaxDialAttempts int
	// RetryBackoff is the base of the jittered exponential backoff
	// between attempts. Zero means 25 milliseconds.
	RetryBackoff time.Duration
	// ChaosCloseAfter, when positive, makes every link endpoint close
	// its connection under the N-th batch it writes — a deterministic
	// fault-injection hook for exercising the reconnect path in tests
	// and smoke runs. Zero (the default) disables it.
	ChaosCloseAfter int64
	// Observer, when non-nil, receives round events (emitted by shard 0
	// with best-effort global active counts, exact cumulative message
	// totals at the final event) and, for congest.ShardObserver /
	// congest.NetObserver implementations, per-shard workload samples
	// and the socket-level transport account when the run ends.
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

func (c Config) shards(n int) int {
	s := c.Shards
	if s <= 0 {
		s = 4
	}
	if s > n {
		s = n
	}
	if s < 1 {
		s = 1
	}
	return s
}

func (c Config) maxDials() int {
	if c.MaxDials <= 0 {
		return 16
	}
	return c.MaxDials
}

func (c Config) dialTimeout() time.Duration {
	if c.DialTimeout <= 0 {
		return 10 * time.Second
	}
	return c.DialTimeout
}

func (c Config) readTimeout() time.Duration {
	if c.ReadTimeout <= 0 {
		return c.dialTimeout()
	}
	return c.ReadTimeout
}

func (c Config) maxDialAttempts() int {
	if c.MaxDialAttempts <= 0 {
		return 3
	}
	return c.MaxDialAttempts
}

func (c Config) retryBackoff() time.Duration {
	if c.RetryBackoff <= 0 {
		return 25 * time.Millisecond
	}
	return c.RetryBackoff
}

// acceptWindow is how long the accepting side of a link waits for the
// peer's (re)dial: the peer's full attempt budget — every dial timeout
// plus every backoff — plus one dial timeout of slack for scheduling
// and hello routing.
func (c Config) acceptWindow() time.Duration {
	attempts := c.maxDialAttempts()
	w := time.Duration(attempts+1) * c.dialTimeout()
	backoff := c.retryBackoff()
	for i := 1; i < attempts; i++ {
		w += backoff + backoff/2
		backoff *= 2
	}
	return w
}

// errAborted unwinds a fiber call after a failure; it never escapes
// the package.
var errAborted = errors.New("nettrans: run aborted")

// Run executes the fiber factory(v) on every vertex v of g over the
// sharded TCP cluster and blocks until every fiber parked Done (or the
// run fails). Any algorithm in this repository runs unchanged, and the
// returned stats are bit-identical to the in-process engines'.
func Run(g *graph.Graph, cfg Config, factory func(id int) congest.Fiber) (*congest.Stats, error) {
	return RunContext(context.Background(), g, cfg, factory)
}

// RunContext is Run under a context. Cancellation (or a deadline) is
// observed while the shard mesh is dialing and at every agreed round
// boundary once the run is underway: the whole mesh is torn down, every
// shard loop unwinds, and the returned error wraps ctx.Err().
func RunContext(ctx context.Context, g *graph.Graph, cfg Config, factory func(id int) congest.Fiber) (*congest.Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("nettrans: run cancelled: %w", err)
	}
	c := newCluster(g, cfg, nil)
	if err := c.connect(ctx); err != nil {
		c.closeAll()
		return nil, err
	}
	return c.run(ctx, factory)
}

// sentMsg is one staged send: the sending vertex, its port, and the
// payload.
type sentMsg struct {
	src  int32
	port int32
	msg  congest.Message
}

// nodeState is the shard-side state of one local vertex. Every field is
// owned by the vertex's shard loop.
type nodeState struct {
	fib    congest.Fiber // nil once done
	inbox  []congest.Inbound
	queued bool
	parked bool
	done   bool
	gen    int64
}

// cluster is one Run: the shard mesh plus shared failure state. In a
// distributed run each worker process holds one cluster hosting its
// local shards (shards[i] is nil for remote shards); the in-process
// engine hosts them all.
type cluster struct {
	g   *graph.Graph
	csr *graph.CSR
	cfg Config

	nshards   int
	shardSize int
	shards    []*shard

	// Placement: addrs[i] is the dialable address of the process
	// hosting shard i (all the local listener in-process), local[i]
	// whether shard i is hosted here, obsShard the lowest local shard
	// (the round-event emitter). runID ties multi-process hellos to
	// this run; remote marks worker mode (the owner feeds inbound
	// connections through Mesh.Accept instead of a local listener).
	addrs    []string
	local    []bool
	obsShard int
	runID    uint64
	remote   bool
	listener net.Listener

	// ctx is the link lifetime: derived from the run context at
	// connect, cancelled at teardown, observed by dials and backoffs.
	ctx    context.Context
	cancel context.CancelFunc

	closed    chan struct{}
	closeOnce sync.Once

	// Socket-level transport counters (always on: one atomic add per
	// wire batch, not per message) plus the shared round-event
	// accumulators the shards feed when an Observer is configured.
	// maxReplay is the longest replay one reconnect made, in batches.
	netBytesOut, netBytesIn    atomic.Int64
	netFramesOut, netFramesIn  atomic.Int64
	netBatches                 atomic.Int64
	dials, dialRetries         atomic.Int64
	reconnects, replayedFrames atomic.Int64
	maxReplay                  atomic.Int64
	obsActive, obsMessages     atomic.Int64

	mu      sync.Mutex
	failErr error
	aborted atomic.Bool
}

// shard owns a contiguous vertex range, one endpoint of the connection
// to every other shard, and the local slice of the synchronizer state.
type shard struct {
	c      *cluster
	id     int
	lo, hi int

	links []*link // indexed by peer shard id; links[id] is nil
	nodes []nodeState

	// node is the Context every local fiber is handed, re-pointed at
	// each vertex of the wake set in turn.
	node Node

	// ready lists local vertices due at round+1 (fresh deliveries or an
	// explicit next-round park); timers orders the more distant park
	// deadlines.
	ready  []int
	timers timerHeap

	round int64
	live  int // local programs still running

	// out[d] stages this round's frames destined to shard d; dests
	// lists the d with frames staged, and wbuf is the reused
	// wire-encoding buffer.
	out   [][]wireMsg
	dests []int32
	wbuf  []byte

	// view is the synchronizer state, indexed by shard id and identical
	// on every shard; played is the index of the current agreed round
	// among all agreed rounds.
	view   []shardView
	played int64

	// Per-shard statistics, merged once at the end of the run.
	busyRound int64
	messages  int64
	byKind    [256]int64

	// Observability: delivered-message watermark for per-round deltas,
	// vertex resumptions handled, and (when sampling is armed) the
	// wall-clock this shard spent executing vertices.
	prevMessages int64
	execs        int64
	busyNanos    int64
}

// heartbeatEvery is how many agreed rounds a quiet shard may go
// without writing before it owes its peers a heartbeat, which bounds
// every link's replay log (see the package doc).
const heartbeatEvery = 64

// shardView is what every shard knows of one shard: its last announced
// calendar and live count, the index of the agreed round it last wrote
// in, whether it writes in the current round (busy), and whether a
// batch of the current round named it as a destination.
type shardView struct {
	next  int64
	live  uint32
	wrote int64
	busy  bool
	named bool
}

// writes reports whether shard j writes a batch in the current round:
// it is busy, or it owes a heartbeat.
func (s *shard) writes(j int) bool {
	v := &s.view[j]
	return v.busy || s.played-v.wrote >= heartbeatEvery
}

// newCluster builds the shard and link structures for one run without
// touching the network; connect establishes the mesh. topo is nil for
// the in-process engine (every shard local, loopback listener) and set
// for one worker of a distributed run.
func newCluster(g *graph.Graph, cfg Config, topo *Topology) *cluster {
	n := g.N()
	c := &cluster{
		g:      g,
		cfg:    cfg,
		closed: make(chan struct{}),
	}
	if n == 0 {
		return c
	}
	c.csr = g.CSR()
	var nShards int
	if topo == nil {
		nShards = cfg.shards(n)
		c.shardSize = (n + nShards - 1) / nShards
		nShards = (n + c.shardSize - 1) / c.shardSize
		c.local = make([]bool, nShards)
		for i := range c.local {
			c.local[i] = true
		}
		c.addrs = make([]string, nShards) // filled when connect listens
	} else {
		nShards = topo.NShards
		c.shardSize = (n + nShards - 1) / nShards
		c.local = topo.Local
		c.addrs = topo.Addrs
		c.runID = topo.RunID
		c.remote = true
	}
	c.nshards = nShards
	c.obsShard = -1
	c.shards = make([]*shard, nShards)
	for i := range c.shards {
		if !c.local[i] {
			continue
		}
		if c.obsShard < 0 {
			c.obsShard = i
		}
		s := &shard{
			c:  c,
			id: i,
			lo: i * c.shardSize,
			hi: min((i+1)*c.shardSize, n),
		}
		s.nodes = make([]nodeState, s.hi-s.lo)
		s.node.s = s
		s.links = make([]*link, nShards)
		for j := range s.links {
			if j != i {
				s.links[j] = newLink(c, i, j)
			}
		}
		s.out = make([][]wireMsg, nShards)
		s.view = make([]shardView, nShards)
		for j := range s.view {
			s.view[j].busy = true // round 0 has every shard busy
		}
		s.live = s.hi - s.lo
		c.shards[i] = s
	}
	return c
}

func (c *cluster) shardOf(v int) int { return v / c.shardSize }

// sockets reports how many TCP connections this process's endpoint of
// the mesh holds: one per shard pair hosted entirely here (counted
// once) plus one per link to a remote shard.
func (c *cluster) sockets() int {
	total := 0
	for _, s := range c.shards {
		if s == nil {
			continue
		}
		for j, l := range s.links {
			if l == nil {
				continue
			}
			if !c.local[j] || j > s.id {
				total++
			}
		}
	}
	return total
}

// netSample snapshots the socket-level account of the run: counters,
// plus the last hello RTT of every dialed connection in (shard, peer)
// order.
func (c *cluster) netSample() congest.NetSample {
	ns := congest.NetSample{
		Sockets:        c.sockets(),
		BytesOut:       c.netBytesOut.Load(),
		BytesIn:        c.netBytesIn.Load(),
		FramesOut:      c.netFramesOut.Load(),
		FramesIn:       c.netFramesIn.Load(),
		Batches:        c.netBatches.Load(),
		Dials:          c.dials.Load(),
		DialRetries:    c.dialRetries.Load(),
		Reconnects:     c.reconnects.Load(),
		ReplayedFrames: c.replayedFrames.Load(),
	}
	for _, s := range c.shards {
		if s == nil {
			continue
		}
		for _, l := range s.links {
			if l == nil || !l.dials() {
				continue
			}
			if rtt := l.rtt(); rtt > 0 {
				ns.RTTs = append(ns.RTTs, congest.PeerRTT{Shard: l.self, Peer: l.peer, Nanos: rtt})
			}
		}
	}
	return ns
}

// closeAll tears down the mesh exactly once — every link, the pending
// re-accepted connections, the listener and the link-lifetime context —
// safe to call from any goroutine (failure propagation closes the whole
// mesh).
func (c *cluster) closeAll() {
	c.closeOnce.Do(func() {
		close(c.closed)
		if c.cancel != nil {
			c.cancel()
		}
		if c.listener != nil {
			c.listener.Close()
		}
		for _, s := range c.shards {
			if s == nil {
				continue
			}
			for _, l := range s.links {
				if l != nil {
					l.close()
				}
			}
		}
	})
}

func (c *cluster) fail(err error) error {
	c.mu.Lock()
	if c.failErr == nil {
		c.failErr = err
	}
	err = c.failErr
	c.mu.Unlock()
	c.aborted.Store(true)
	return err
}

func (c *cluster) err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failErr
}

// run starts the readers and the shard loops, and blocks until the
// cluster terminates, fails, or ctx is cancelled.
func (c *cluster) run(ctx context.Context, factory func(id int) congest.Fiber) (*congest.Stats, error) {
	defer c.closeAll()
	if c.g.N() == 0 {
		return &congest.Stats{}, nil
	}
	// Cancellation fails the run and drops the mesh: every shard loop
	// notices either the aborted flag at its next round boundary or the
	// closed channel while blocked on a peer batch.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			c.fail(fmt.Errorf("nettrans: run cancelled: %w", ctx.Err()))
			c.closeAll()
		case <-watchDone:
		}
	}()
	for _, s := range c.shards {
		if s == nil {
			continue
		}
		for _, l := range s.links {
			if l != nil {
				go l.readLoop()
			}
		}
	}
	for _, s := range c.shards {
		if s == nil {
			continue
		}
		for v := s.lo; v < s.hi; v++ {
			// Every vertex is in the round-0 wake set.
			nd := &s.nodes[v-s.lo]
			nd.fib = factory(v)
			nd.queued = true
			s.ready = append(s.ready, v)
		}
	}
	var wg sync.WaitGroup
	for _, s := range c.shards {
		if s == nil {
			continue
		}
		wg.Add(1)
		go func(s *shard) {
			defer wg.Done()
			s.loop()
		}(s)
	}
	wg.Wait()

	// Local shards only: in worker mode the driver merges workers'
	// stats exactly as this loop merges shards (max of rounds, sum of
	// messages), which is what keeps a distributed run bit-identical.
	stats := &congest.Stats{}
	for _, s := range c.shards {
		if s == nil {
			continue
		}
		if s.busyRound > stats.Rounds {
			stats.Rounds = s.busyRound
		}
		stats.Messages += s.messages
		for k, n := range s.byKind {
			stats.ByKind[k] += n
		}
	}
	if obs := c.cfg.Observer; obs != nil {
		// The final event pins the cumulative total to Stats.Messages:
		// per-round events are best-effort across concurrently-running
		// shards, but the aggregate a trace reports is exact.
		obs.OnRound(congest.RoundEvent{Round: stats.Rounds, Messages: stats.Messages})
		if so, ok := obs.(congest.ShardObserver); ok {
			for _, s := range c.shards {
				if s == nil {
					continue
				}
				so.OnShardSample(congest.ShardSample{
					Shard:     s.id,
					Vertices:  s.hi - s.lo,
					Execs:     s.execs,
					Messages:  s.messages,
					BusyNanos: s.busyNanos,
				})
			}
		}
		if no, ok := obs.(congest.NetObserver); ok {
			no.OnNet(c.netSample())
		}
	}
	return stats, c.err()
}

// loop plays agreed rounds until global termination, failure, deadlock
// or MaxRounds. Every shard executes the identical agreed round
// sequence, which is what keeps the statistics engine-exact.
func (s *shard) loop() {
	c := s.c
	maxRounds := c.cfg.maxRounds()
	obs := c.cfg.Observer
	sample := false
	if obs != nil {
		_, sample = obs.(congest.ShardObserver)
	}
	var prevActive int64
	for {
		if c.aborted.Load() {
			s.abort()
			return
		}
		var roundStart time.Time
		if obs != nil {
			roundStart = time.Now() //lint:allow noclock observer round-wall-clock sampling, off the stats path
		}
		var wakes []int
		if s.view[s.id].busy {
			wakes = s.wakeSet()
			if len(wakes) > 0 && s.round > s.busyRound {
				s.busyRound = s.round
			}
			s.execs += int64(len(wakes))
			s.exec(wakes)
		}
		if sample {
			s.busyNanos += time.Since(roundStart).Nanoseconds() //lint:allow noclock shard busy-time sampling, off the stats path
		}
		if c.aborted.Load() { // a local program panicked or violated bandwidth
			s.abort()
			return
		}
		if err := s.exchange(); err != nil {
			c.fail(err)
			s.abort()
			return
		}
		if obs != nil {
			// Every shard folds its per-round deltas into the shared
			// accumulators; the lowest local shard emits the round event.
			// A busy shard can run up to heartbeatEvery agreed rounds
			// ahead of the emitter, so Active is a best-effort sample
			// (process-local in worker mode) — the final event in run()
			// pins the cumulative message total exactly.
			c.obsActive.Add(int64(len(wakes)))
			c.obsMessages.Add(s.messages - s.prevMessages)
			s.prevMessages = s.messages
			if s.id == c.obsShard {
				active := c.obsActive.Load()
				obs.OnRound(congest.RoundEvent{
					Round:     s.round,
					Active:    int(active - prevActive),
					Messages:  c.obsMessages.Load(),
					WallNanos: time.Since(roundStart).Nanoseconds(), //lint:allow noclock observer round-wall-clock sampling, off the stats path
				})
				prevActive = active
			}
		}
		next, totalLive := s.agree()
		switch {
		case totalLive == 0:
			// Agreed by every shard from the same view: nothing will ever
			// be sent again, so the mesh can simply be dropped.
			return
		case next == congest.Forever:
			c.fail(fmt.Errorf("nettrans: %w", congest.ErrDeadlock))
			s.abort()
			return
		case next > maxRounds:
			c.fail(fmt.Errorf("nettrans: %w (%d)", congest.ErrMaxRounds, maxRounds))
			s.abort()
			return
		}
		s.round = next
	}
}

// exchange is the wire half of one agreed round: this shard writes its
// batch if it writes this round, then reads the batch of every other
// shard that does, folding each announcement into the view.
func (s *shard) exchange() error {
	if s.writes(s.id) {
		if err := s.flush(); err != nil {
			return err
		}
	}
	for j := range s.view {
		if j != s.id && s.writes(j) {
			if err := s.recvBatch(j); err != nil {
				return err
			}
		}
	}
	return nil
}

// agree computes the next agreed round, and the busy set that plays it,
// from the view — exactly as every other shard does — and returns the
// round with the total count of programs still running.
func (s *shard) agree() (next int64, totalLive int) {
	next = congest.Forever
	named := false
	for _, v := range s.view {
		next = min(next, v.next)
		named = named || v.named
		totalLive += int(v.live)
	}
	if named {
		// Frames sent at this round wake their recipients at the next.
		next = s.round + 1
	}
	for j := range s.view {
		v := &s.view[j]
		v.busy = v.next == next || v.named
		v.named = false
	}
	s.played++
	return next, totalLive
}

// wakeSet collects the local vertices due at the current agreed round:
// the ready list plus every live calendar entry with deadline <= round,
// in ascending vertex order.
func (s *shard) wakeSet() []int {
	due := s.ready
	s.ready = nil
	for s.timers.Len() > 0 && s.timers.items[0].round <= s.round {
		entry := heap.Pop(&s.timers).(timerEntry)
		nd := &s.nodes[entry.id-s.lo]
		if nd.done || !nd.parked || nd.queued || nd.gen != entry.gen {
			continue
		}
		nd.queued = true // guards against double release
		due = append(due, entry.id)
	}
	sort.Ints(due)
	return due
}

// exec calls the wake set's fibers inline, one at a time in ascending
// vertex order, and records their parks. Their sends stay staged until
// the whole wake set has run and are then routed: local messages are
// delivered in place, remote ones staged per destination shard.
func (s *shard) exec(wakes []int) {
	nc := &s.node
	for _, v := range wakes {
		nd := &s.nodes[v-s.lo]
		nd.queued = false
		nd.parked = false
		msgs := nd.inbox
		nd.inbox = nil
		if len(msgs) > 1 {
			sort.SliceStable(msgs, func(i, j int) bool { return msgs[i].Port < msgs[j].Port })
		}
		mark := len(nc.outbox)
		park, ok := s.call(nd, v, msgs)
		for _, sm := range nc.outbox[mark:] {
			nc.sentN[sm.port] = 0
		}
		target := park.Deadline(s.round)
		switch {
		case !ok:
			// The fiber died mid-call: discard its partial outbox.
			nc.outbox = nc.outbox[:mark]
			s.retire(nd)
			continue
		case park == congest.ParkDone:
			s.retire(nd)
			continue
		case target <= s.round:
			s.c.fail(fmt.Errorf("nettrans: processor %d parked for round %d at round %d", v, target, s.round))
			s.retire(nd)
			continue
		}
		nd.parked = true
		nd.gen++
		switch {
		case target == s.round+1:
			nd.queued = true
			s.ready = append(s.ready, v)
		case target < congest.Forever:
			heap.Push(&s.timers, timerEntry{round: target, id: v, gen: nd.gen})
		}
	}
	for _, sm := range nc.outbox {
		s.route(sm)
	}
	nc.outbox = nc.outbox[:0]
}

// call runs one Start (round 0) or Resume; a panic fails the run and
// ok reports whether the fiber survived the call. errAborted is the
// unwinding sentinel of an already-failed run and is not reported
// again.
func (s *shard) call(nd *nodeState, v int, msgs []congest.Inbound) (park congest.Park, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if r != errAborted { //nolint:errorlint // sentinel identity
				s.c.fail(fmt.Errorf("nettrans: processor %d panicked: %v", v, r))
			}
			park, ok = congest.ParkDone, false
		}
	}()
	s.node.point(v, s.round)
	if s.round == 0 {
		return nd.fib.Start(&s.node), true
	}
	return nd.fib.Resume(&s.node, msgs), true
}

// retire marks a local vertex finished and releases its program.
func (s *shard) retire(nd *nodeState) {
	nd.done = true
	nd.fib = nil
	s.live--
}

// route stages one outbound message: delivered immediately if the
// destination vertex is local, otherwise appended to the destination
// shard's wire batch as a (src, port) frame.
func (s *shard) route(sm sentMsg) {
	pos := s.c.csr.Off[sm.src] + int64(sm.port)
	to := int(s.c.csr.To[pos])
	d := s.c.shardOf(to)
	if d == s.id {
		s.deliver(to, int(s.c.csr.PeerPort[pos]), sm.msg)
		return
	}
	s.out[d] = append(s.out[d], wireMsg{src: sm.src, port: sm.port, msg: sm.msg})
}

// deliver appends one message to a local vertex's inbox, counts it, and
// queues the vertex for the next round if it is parked. Deliveries to
// finished vertices still count (exactly as the simulators count them).
func (s *shard) deliver(to, port int, m congest.Message) {
	nd := &s.nodes[to-s.lo]
	nd.inbox = append(nd.inbox, congest.Inbound{Port: port, Msg: m})
	s.messages++
	s.byKind[m.Kind]++
	if nd.parked && !nd.queued && !nd.done {
		nd.queued = true
		s.ready = append(s.ready, to)
	}
}

// calendar computes this shard's own announcement: the earliest future
// round at which it can be busy on its own account — round+1 if any
// local vertex is already due, else the earliest live calendar entry.
// Remote messages it just staged wake their recipients' shards instead,
// through the destination set of its batch.
func (s *shard) calendar() int64 {
	if len(s.ready) > 0 {
		return s.round + 1
	}
	for s.timers.Len() > 0 {
		top := s.timers.items[0]
		nd := &s.nodes[top.id-s.lo]
		if nd.done || !nd.parked || nd.queued || nd.gen != top.gen {
			heap.Pop(&s.timers) // stale
			continue
		}
		return top.round
	}
	return congest.Forever
}

// flush writes this round's batch to every peer shard: the frames
// staged for it, then this shard's calendar, live count and
// destination set. A quiet shard's heartbeat is the same batch with no
// frames and no destinations. A broken connection is transparently
// re-established and the batch replayed by the link; only an exhausted
// retry budget fails the run.
func (s *shard) flush() error {
	next := s.calendar()
	s.dests = s.dests[:0]
	for d, msgs := range s.out {
		if len(msgs) > 0 {
			s.dests = append(s.dests, int32(d))
		}
	}
	for j := range s.links {
		if j == s.id {
			continue
		}
		s.wbuf = appendBatch(s.wbuf[:0], s.round, next, uint32(s.live), s.dests, s.out[j])
		if err := s.links[j].send(s.round, s.wbuf, int64(len(s.out[j]))); err != nil {
			return fmt.Errorf("nettrans: shard %d write to shard %d: %w", s.id, j, err)
		}
		s.out[j] = s.out[j][:0]
	}
	s.announced(s.id, next, uint32(s.live), s.dests)
	return nil
}

// announced folds shard j's batch for the current round into the view.
func (s *shard) announced(j int, next int64, live uint32, dests []int32) {
	v := &s.view[j]
	v.next, v.live, v.wrote = next, live, s.played
	for _, d := range dests {
		s.view[d].named = true
	}
}

// recvBatch blocks for peer shard j's batch for the current agreed
// round, ingests its frames, and folds its announcement into the view.
// Batches for past rounds are duplicates replayed by the peer's
// reconnect path and are skipped, which is what makes the at-least-once
// replay exactly-once at ingestion. The mesh closing mid-wait means
// another shard aborted the run.
func (s *shard) recvBatch(j int) error {
	var b *batch
	for {
		select {
		case b = <-s.links[j].batches:
		case <-s.c.closed:
			if err := s.c.err(); err != nil {
				return err
			}
			return fmt.Errorf("nettrans: shard %d: mesh closed while waiting for shard %d", s.id, j)
		}
		if b.err != nil {
			return fmt.Errorf("nettrans: shard %d read from shard %d: %w", s.id, j, b.err)
		}
		if b.round < s.round {
			continue // replayed duplicate of an already-ingested round
		}
		break
	}
	if b.round != s.round {
		return fmt.Errorf("nettrans: shard %d: round skew from shard %d: got %d at %d",
			s.id, j, b.round, s.round)
	}
	if b.next <= s.round {
		return fmt.Errorf("nettrans: shard %d: shard %d announced past round %d at %d", s.id, j, b.next, s.round)
	}
	if (len(b.msgs) > 0) != slices.Contains(b.dests, int32(s.id)) {
		return fmt.Errorf("nettrans: shard %d: batch from shard %d disagrees with its destination set", s.id, j)
	}
	for _, wm := range b.msgs {
		src := int(wm.src)
		if src < 0 || src >= s.c.g.N() || s.c.shardOf(src) == s.id {
			return fmt.Errorf("nettrans: shard %d: frame from invalid vertex %d", s.id, src)
		}
		pos := s.c.csr.Off[src] + int64(wm.port)
		if wm.port < 0 || pos >= s.c.csr.Off[src+1] {
			return fmt.Errorf("nettrans: shard %d: frame on invalid port %d of vertex %d", s.id, wm.port, src)
		}
		to := int(s.c.csr.To[pos])
		if s.c.shardOf(to) != s.id {
			return fmt.Errorf("nettrans: shard %d: misrouted frame for vertex %d", s.id, to)
		}
		s.deliver(to, int(s.c.csr.PeerPort[pos]), wm.msg)
	}
	s.links[j].ack(b.round)
	s.announced(j, b.next, b.live, b.dests)
	return nil
}

// abort tears down the mesh, unblocking every other shard. Parked
// fibers are plain structs and need no unwinding.
func (s *shard) abort() { s.c.closeAll() }

// Node is the congest.Context of one shard: the shard loop re-points it
// at each vertex of the wake set before calling that vertex's fiber.
// All methods must be called only from within that call.
type Node struct {
	s     *shard
	id    int
	base  int64 // first arc position of this vertex in the CSR
	deg   int
	round int64

	// outbox stages the wake set's sends, in call order; exec routes
	// and clears it once the whole wake set has run.
	outbox []sentMsg

	// sentN counts the current call's sends per port. A fiber is
	// called at most once per round, so per-call counts are per-round
	// counts; exec re-zeroes the entries a call touched.
	sentN []int32
}

var _ congest.Context = (*Node)(nil)

// point aims the context at vertex id for one Start/Resume call.
func (nd *Node) point(id int, round int64) {
	nd.id = id
	nd.base = nd.s.c.csr.Off[id]
	nd.deg = nd.s.c.csr.Degree(id)
	nd.round = round
	if nd.deg > len(nd.sentN) {
		nd.sentN = make([]int32, nd.deg)
	}
}

// ID returns the identity of the hosting vertex.
func (nd *Node) ID() int { return nd.id }

// Degree returns the number of ports (incident edges).
func (nd *Node) Degree() int { return nd.deg }

// Weight returns the weight of the edge behind port p.
func (nd *Node) Weight(p int) int64 { return nd.s.c.csr.W[nd.base+int64(p)] }

// Round returns the current round number (starting at 0).
func (nd *Node) Round() int64 { return nd.round }

// Bandwidth returns b, the per-edge per-direction message budget.
func (nd *Node) Bandwidth() int { return nd.s.c.cfg.bandwidth() }

// Send queues m on port p for delivery at the beginning of the next
// round. Sending more than Bandwidth() messages on one port in a
// single round violates the CONGEST model and aborts the run.
func (nd *Node) Send(p int, m congest.Message) {
	if p < 0 || p >= nd.deg {
		nd.s.c.fail(fmt.Errorf("nettrans: processor %d sent on invalid port %d", nd.id, p))
		panic(errAborted)
	}
	if int(nd.sentN[p]) >= nd.s.c.cfg.bandwidth() {
		nd.s.c.fail(fmt.Errorf("%w: processor %d port %d round %d (b=%d)",
			congest.ErrBandwidth, nd.id, p, nd.round, nd.s.c.cfg.bandwidth()))
		panic(errAborted)
	}
	nd.sentN[p]++
	nd.outbox = append(nd.outbox, sentMsg{src: int32(nd.id), port: int32(p), msg: m})
}

type timerEntry struct {
	round int64
	id    int
	gen   int64
}

type timerHeap struct {
	items []timerEntry
}

func (h *timerHeap) Len() int           { return len(h.items) }
func (h *timerHeap) Less(i, j int) bool { return h.items[i].round < h.items[j].round }
func (h *timerHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *timerHeap) Push(x any)         { h.items = append(h.items, x.(timerEntry)) }
func (h *timerHeap) Pop() any {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}
