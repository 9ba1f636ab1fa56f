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
//   - Distance-bounded synchronizer. Shards exchange batches only at
//     sync rounds, the rounds at which some shard could next put a frame
//     on the wire, and between two sync rounds each shard plays its own
//     rounds alone, the way Lockstep plays them. This is a conservative
//     time window (Nicol, J. ACM 1993) over one global round sequence,
//     so an idle stretch is still crossed in one exchange.
//
// The send bound. When a shard is built, one multi-source BFS inside
// its vertex range gives each vertex its hop distance to the boundary:
// the nearest vertex with an arc into another shard. A message moves
// one hop a round, and a vertex parked ParkAwait wakes only to mail, so
// until a frame arrives no boundary vertex of the shard runs before the
// minimum, over its pending wakes (the vertices due next round and the
// live calendar entries), of the wake round plus the vertex's distance
// (congest.Shard.Reach). That minimum is the shard's send, and it is
// never below its next, the earliest round it has work at all
// (congest.Shard.Next).
//
// The sync rule. At sync round W a writing shard plays W, then sends
// every peer one batch: the frames it staged at W, its next and send,
// its count of still-running programs, and the set of shards it sent
// frames to. Every shard keeps the last announcement of every shard,
// and computes from that view, as every other shard does, the next sync
// round W′: W+1 if any batch of W named a destination, since frames sent
// at W wake their recipients at W+1, and otherwise the minimum of all
// sends. Shard j writes at W′ if its next is at most W′, if a batch of W
// named it, or if it owes a heartbeat; round 0 has every shard writing.
// A shard that does not write plays no round in (W, W′] and is sent no
// frame, so its next, send and live count cannot have changed: its last
// announcement stands in for the batch it no longer sends.
//
// Why no frame appears between syncs. Frames reach a shard only in a
// sync, so from sync W on each shard evolves from its own pending
// wakes, and its first frame can leave no earlier than its send. W′ is
// at most every send, so no shard reaches its boundary before W′. A
// frame staged at any other round means the bound was wrong; that fails
// the run with an internal error instead of holding the frame back.
// Rounds that carry no frame therefore need no exchange, and the rounds
// each shard plays are exactly those Lockstep plays, which is why
// Stats.Rounds (the last round any fiber ran) and Messages and ByKind
// (counted on delivery) match the simulators bit for bit. Each sync
// interval holds at least one played round, and a writer that is not
// paying a heartbeat played a round since it last wrote, so a run never
// writes more batches than one exchange per played round would, up to
// one final exchange.
//
// Termination, deadlock and MaxRounds. When every send is Forever and
// no batch named a destination, W′ is Forever: each shard plays out its
// own work and then joins one final exchange in which every shard
// writes. A live total of zero in any exchange ends the run, agreed by
// every shard from the same view; no separate control plane or FIN
// handshake is needed. After the final exchange a positive live total is
// ErrDeadlock, since every program then waits for mail that no one will
// send. MaxRounds is checked against the rounds a shard has work in, as
// Lockstep checks the rounds it advances to; a sync round that no fiber
// plays may lie past the last round and trips nothing by itself.
//
// Any transport failure — a broken connection that cannot be healed, a
// program panic, a bandwidth violation — closes every connection, which
// unwinds all shards and surfaces as an error from Run instead of a
// hang.
//
// Heartbeats and the replay log. A quiet shard that has not written for
// heartbeatEvery syncs writes an announcement-only heartbeat. Every
// shard knows when each shard last wrote, so readers expect heartbeats
// exactly when they arrive. Heartbeats bound the replay log of each
// link: reading a peer's batch for sync W proves the peer consumed all
// of ours for syncs before W, so a link keeps only what it wrote since
// it last heard from the peer, at most heartbeatEvery+2 batches, and
// replays all of it on a fresh connection after a fault (the receiver
// drops duplicates by round).
//
// No deadlock. A writing shard reads only from shards that write, so it
// can run ahead of quiet peers until it needs one's heartbeat. Take the
// shard at the lowest sync W. Every batch it waits for comes from a
// writer of W, which is at W or beyond and writes before it reads, so
// the batch is written; the rounds a shard plays alone between syncs
// wait on nothing. Its own writes drain, because every link has a
// reader goroutine of its own that moves batches off the socket
// whatever its shard loop is doing, into a channel with room for the
// largest run-ahead plus a replay. So the lowest shard always makes
// progress, however far a lone writer runs ahead.
//
// Each shard is a congest.Shard, the executor the in-process engines
// run on, so the vertex record, the Context, the park switch and the
// delivery arena are the same code here. A shard loop plays its wake
// set inline, one fiber at a time in ascending vertex order, stages
// remote sends as wire frames and scatters local sends and peers'
// frames in one delivery after the exchange, so a run costs one
// goroutine per shard (plus one reader per link), never one per
// vertex.
package nettrans

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
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
	// Observer, when non-nil, receives one round event per sync round
	// (emitted by the lowest local shard, with best-effort global active
	// counts and exact cumulative message totals at the final event)
	// and, for congest.ShardObserver / congest.NetObserver
	// implementations, per-shard workload samples and the socket-level
	// transport account when the run ends.
	Observer congest.Observer
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

// Run executes the fiber factory(v) on every vertex v of g over the
// sharded TCP cluster and blocks until every fiber parked Done (or the
// run fails). Any algorithm in this repository runs unchanged, and the
// returned stats are bit-identical to the in-process engines'.
func Run(g *graph.Graph, cfg Config, factory func(id int) congest.Fiber) (*congest.Stats, error) {
	return RunContext(context.Background(), g, cfg, factory)
}

// RunContext is Run under a context. Cancellation (or a deadline) is
// observed while the shard mesh is dialing and before every round a
// shard plays once the run is underway: the whole mesh is torn down,
// every shard loop unwinds, and the returned error wraps ctx.Err().
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
	// accumulators the shards feed when an Observer is configured:
	// obsLast is the last round a local fiber ran. maxReplay is the
	// longest replay one reconnect made, in batches.
	netBytesOut, netBytesIn    atomic.Int64
	netFramesOut, netFramesIn  atomic.Int64
	netBatches                 atomic.Int64
	dials, dialRetries         atomic.Int64
	reconnects, replayedFrames atomic.Int64
	maxReplay                  atomic.Int64
	obsActive, obsMessages     atomic.Int64
	obsLast                    atomic.Int64

	mu      sync.Mutex
	failErr error
	aborted atomic.Bool
}

// shard is one congest.Shard of the run, one endpoint of the
// connection to every other shard, and the local slice of the
// synchronizer state.
type shard struct {
	*congest.Shard
	c  *cluster
	id int

	links []*link // indexed by peer shard id; links[id] is nil

	// dist[v-lo] is vertex v's hop distance inside the shard to the
	// nearest vertex with an arc into another shard, or -1 when the
	// shard holds no path to one: the input of the send bound.
	dist []int32

	// sync is the sync round being played towards, round the last round
	// the shard played or synced at, and last the last round a fiber of
	// the shard ran; clock vets every round the shard plays against
	// MaxRounds.
	sync, round, last int64
	clock             *congest.Clock

	// inbound collects the frames of this sync's peer batches, resolved
	// to deliveries; dests lists the peers this sync's sends go to, and
	// wire and wbuf are the reused wire-encoding buffers.
	inbound []congest.Delivery
	dests   []int32
	wire    []wireMsg
	wbuf    []byte

	// view is the synchronizer state, indexed by shard id and identical
	// on every shard; played is the index of the current sync among all
	// syncs.
	view   []shardView
	played int64

	// prevMessages is the delivered-message watermark for per-sync
	// deltas of the round events.
	prevMessages int64
}

// heartbeatEvery is how many syncs a quiet shard may go without
// writing before it owes its peers a heartbeat, which bounds every
// link's replay log (see the package doc).
const heartbeatEvery = 64

// shardView is what every shard knows of one shard: its last announced
// next, send and live count, the index of the sync it last wrote in,
// whether it writes at the current sync (busy), and whether a batch of
// the current sync named it as a destination.
type shardView struct {
	next, send int64
	live       uint32
	wrote      int64
	busy       bool
	named      bool
}

// writes reports whether shard j writes a batch at the current sync:
// it is busy, or it owes a heartbeat.
func (s *shard) writes(j int) bool {
	v := &s.view[j]
	return v.busy || s.played-v.wrote >= heartbeatEvery
}

// boundaryDist returns, for each vertex v in [lo, hi), its hop distance
// inside [lo, hi) to the nearest vertex with an arc leaving it, or -1
// when there is none: one multi-source BFS over the range's arcs.
func boundaryDist(csr *graph.CSR, lo, hi int) []int32 {
	dist := make([]int32, hi-lo)
	queue := make([]int32, 0, hi-lo)
	for v := lo; v < hi; v++ {
		dist[v-lo] = -1
		for _, u := range csr.To[csr.Off[v]:csr.Off[v+1]] {
			if int(u) < lo || int(u) >= hi {
				dist[v-lo] = 0
				queue = append(queue, int32(v))
				break
			}
		}
	}
	for head := 0; head < len(queue); head++ {
		v := int(queue[head])
		for _, u := range csr.To[csr.Off[v]:csr.Off[v+1]] {
			if int(u) >= lo && int(u) < hi && dist[int(u)-lo] < 0 {
				dist[int(u)-lo] = dist[v-lo] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
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
		lo := i * c.shardSize
		s := &shard{
			Shard: congest.NewShard(c.csr, i, c.shardSize, cfg.Bandwidth, func(err error) { c.fail(err) }),
			c:     c,
			id:    i,
			dist:  boundaryDist(c.csr, lo, min(lo+c.shardSize, n)),
			round: -1, // nothing played yet: round 0 is the first with work
			clock: congest.NewClock(cfg.MaxRounds),
		}
		s.Reserve()
		s.links = make([]*link, nShards)
		for j := range s.links {
			if j != i {
				s.links[j] = newLink(c, i, j)
			}
		}
		s.view = make([]shardView, nShards)
		for j := range s.view {
			s.view[j].busy = true // every shard writes at sync 0
		}
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
		if s != nil {
			s.Load(factory)
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
		if s != nil {
			s.AddTo(stats)
			s.Release()
		}
	}
	if obs := c.cfg.Observer; obs != nil {
		// The final event pins the cumulative total to Stats.Messages:
		// per-round events are best-effort across concurrently-running
		// shards, but the aggregate a trace reports is exact.
		obs.OnRound(congest.RoundEvent{Round: stats.Rounds, Messages: stats.Messages})
		if so, ok := obs.(congest.ShardObserver); ok {
			for _, s := range c.shards {
				if s != nil {
					so.OnShardSample(s.Sample(s.id))
				}
			}
		}
		if no, ok := obs.(congest.NetObserver); ok {
			no.OnNet(c.netSample())
		}
	}
	return stats, c.err()
}

// loop plays the shard's rounds and takes part in every sync until
// global termination, failure, deadlock or MaxRounds. Every shard
// computes the same sync sequence, and between two syncs plays exactly
// the rounds Lockstep would, which is what keeps the statistics
// engine-exact.
func (s *shard) loop() {
	c := s.c
	obs := c.cfg.Observer
	sample := false
	if obs != nil {
		_, sample = obs.(congest.ShardObserver)
	}
	var prevActive int64
	for s.sync = 0; ; {
		var start time.Time
		if obs != nil {
			start = time.Now() //lint:allow noclock observer sync-interval wall-clock sampling, off the stats path
		}
		active, err := s.playUntilSync()
		if sample {
			s.BusyNanos += time.Since(start).Nanoseconds() //lint:allow noclock shard busy-time sampling, off the stats path
		}
		if err == nil && c.aborted.Load() { // cancelled, or a local program panicked or violated bandwidth
			err = c.err()
		}
		if obs != nil {
			c.obsActive.Add(int64(active))
			atomicMax(&c.obsLast, s.last)
		}
		// Local sends wake their recipients before this shard announces
		// its calendar; the peers' frames join them after the exchange,
		// and one Deliver scatters both.
		if err == nil {
			s.Receive(&s.Out[s.id])
			err = s.exchange()
		}
		if err != nil {
			c.fail(err)
			s.abort()
			return
		}
		s.Receive(&s.inbound)
		s.Deliver()
		if obs != nil {
			// Every shard folds its deltas into the shared accumulators;
			// the lowest local shard emits one event per sync. A writer
			// can run up to heartbeatEvery syncs ahead of the emitter, so
			// Active is a best-effort sample (process-local in worker
			// mode), and no event names a round past the last one a
			// local fiber ran. The final event in run() pins the
			// cumulative message total exactly.
			c.obsMessages.Add(s.Messages - s.prevMessages)
			s.prevMessages = s.Messages
			if s.id == c.obsShard {
				active := c.obsActive.Load()
				obs.OnRound(congest.RoundEvent{
					Round:     min(s.sync, c.obsLast.Load()),
					Active:    int(active - prevActive),
					Messages:  c.obsMessages.Load(),
					WallNanos: time.Since(start).Nanoseconds(), //lint:allow noclock observer sync-interval wall-clock sampling, off the stats path
				})
				prevActive = active
			}
		}
		next, totalLive := s.agree()
		if totalLive == 0 {
			// Agreed by every shard from the same view: nothing will ever
			// be sent again, so the mesh can simply be dropped.
			return
		}
		if s.sync == congest.Forever {
			// Every shard played out its work and no frame crossed:
			// every program left waits for mail no one will send.
			c.fail(fmt.Errorf("nettrans: %w", congest.ErrDeadlock))
			s.abort()
			return
		}
		s.sync = next
	}
}

// playUntilSync plays, alone, every round the shard has work in up to
// and including the sync round, and returns how many vertices it woke.
// A round before the sync round delivers its local sends at once; the
// sync round's go out with the exchange. The sync round becomes the
// shard's round whether or not it played it, so that mail of the
// exchange wakes its recipients at the round after it.
func (s *shard) playUntilSync() (active int, err error) {
	for r := s.Next(s.round); r <= s.sync && r < congest.Forever; r = s.Next(s.round) {
		if s.c.aborted.Load() {
			return active, nil
		}
		if err := s.clock.Advance(r); err != nil {
			return active, fmt.Errorf("nettrans: %w", err)
		}
		if n := s.Wake(r); n > 0 {
			active += n
			s.last = r
		}
		s.Play(r)
		s.round = r
		if r == s.sync {
			break
		}
		for j, row := range s.Out {
			if j != s.id && len(row) > 0 {
				return active, fmt.Errorf("%w: shard %d staged %d frames for shard %d at round %d, before sync round %d",
					errEarlyFrame, s.id, len(row), j, r, s.sync)
			}
		}
		s.Receive(&s.Out[s.id])
		s.Deliver()
	}
	if s.sync < congest.Forever {
		s.round = s.sync
	}
	return active, nil
}

// errEarlyFrame fails a run in which a shard staged a frame for another
// shard at a round that is not a sync round: its send bound was wrong,
// and holding the frame back or delivering it late would desync the run.
var errEarlyFrame = errors.New("nettrans: internal error: frame staged between sync rounds")

// atomicMax raises a to v if v is larger.
func atomicMax(a *atomic.Int64, v int64) {
	for {
		prev := a.Load()
		if v <= prev || a.CompareAndSwap(prev, v) {
			return
		}
	}
}

// exchange is the wire half of one sync: this shard writes its batch
// if it writes at this sync, then reads the batch of every other shard
// that does, folding each announcement into the view.
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

// agree computes the next sync round, and the shards that write at it,
// from the view — exactly as every other shard does — and returns the
// round with the total count of programs still running.
func (s *shard) agree() (next int64, totalLive int) {
	next = congest.Forever
	named := false
	for _, v := range s.view {
		next = min(next, v.send)
		named = named || v.named
		totalLive += int(v.live)
	}
	if named {
		// Frames sent at this sync wake their recipients at the next round.
		next = s.sync + 1
	}
	for j := range s.view {
		v := &s.view[j]
		v.busy = v.next <= next || v.named
		v.named = false
	}
	s.played++
	return next, totalLive
}

// flush writes this sync's batch to every peer shard: the frames staged
// for it, then this shard's next, send, live count and destination set.
// A quiet shard's heartbeat is the same batch with no frames and no
// destinations. A broken connection is transparently re-established and
// the batch replayed by the link; only an exhausted retry budget fails
// the run.
func (s *shard) flush() error {
	next := s.Next(s.round)
	send := s.Reach(s.round, s.dist)
	live := uint32(s.Live())
	s.dests = s.dests[:0]
	for d, row := range s.Out {
		if d != s.id && len(row) > 0 {
			s.dests = append(s.dests, int32(d))
		}
	}
	for j, l := range s.links {
		if l == nil {
			continue
		}
		s.wbuf = appendBatch(s.wbuf[:0], s.sync, next, send, live, s.dests, s.frames(j))
		if err := l.send(s.sync, s.wbuf, int64(len(s.Out[j]))); err != nil {
			return fmt.Errorf("nettrans: shard %d write to shard %d: %w", s.id, j, err)
		}
		s.Out[j] = s.Out[j][:0]
	}
	s.announced(s.id, next, send, live, s.dests)
	return nil
}

// frames returns this sync's sends to shard j as wire frames. A
// Delivery names the arc's receiving end; the frame names its sending
// end, which the CSR gives back: the arc behind port p of vertex v
// leads to vertex To and arrives there on port PeerPort.
func (s *shard) frames(j int) []wireMsg {
	csr := s.c.csr
	s.wire = s.wire[:0]
	for _, dv := range s.Out[j] {
		pos := csr.Off[dv.To] + int64(dv.Port)
		s.wire = append(s.wire, wireMsg{src: csr.To[pos], port: csr.PeerPort[pos], msg: dv.Msg})
	}
	return s.wire
}

// announced folds shard j's batch for the current sync into the view.
func (s *shard) announced(j int, next, send int64, live uint32, dests []int32) {
	v := &s.view[j]
	v.next, v.send, v.live, v.wrote = next, send, live, s.played
	for _, d := range dests {
		s.view[d].named = true
	}
}

// recvBatch blocks for peer shard j's batch for the current sync, checks
// its announcement and frames, resolves the frames into inbound for this
// sync's delivery, and folds the announcement into the view. Batches
// for past syncs are duplicates replayed by the peer's reconnect path
// and are skipped, which is what makes the at-least-once replay
// exactly-once at ingestion. The mesh closing mid-wait means another
// shard aborted the run.
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
		if b.round < s.sync {
			continue // replayed duplicate of an already-ingested sync
		}
		break
	}
	if b.round != s.sync {
		return fmt.Errorf("nettrans: shard %d: round skew from shard %d: got %d at %d",
			s.id, j, b.round, s.sync)
	}
	// A shard announces only rounds it has not reached, and at the final
	// exchange (sync Forever) only Forever. Its send is at least its
	// next, so it too lies past the sync.
	if b.next <= s.sync && b.next != congest.Forever {
		return fmt.Errorf("nettrans: shard %d: shard %d announced past round %d at %d", s.id, j, b.next, s.sync)
	}
	if b.send < b.next {
		return fmt.Errorf("nettrans: shard %d: shard %d announced send round %d with next %d at %d",
			s.id, j, b.send, b.next, s.sync)
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
		to := s.c.csr.To[pos]
		if s.c.shardOf(int(to)) != s.id {
			return fmt.Errorf("nettrans: shard %d: misrouted frame for vertex %d", s.id, to)
		}
		s.inbound = append(s.inbound, congest.Delivery{To: to, Port: s.c.csr.PeerPort[pos], Msg: wm.msg})
	}
	s.links[j].ack(b.round)
	s.announced(j, b.next, b.send, b.live, b.dests)
	return nil
}

// abort tears down the mesh, unblocking every other shard. Parked
// fibers are plain structs and need no unwinding.
func (s *shard) abort() { s.c.closeAll() }
