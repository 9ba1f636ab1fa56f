package nettrans

import (
	"context"
	"errors"
	"testing"
	"time"

	"congestmst/internal/congest"
	"congestmst/internal/core"
	"congestmst/internal/ghs"
	"congestmst/internal/graph"
	"congestmst/internal/verify"
)

// runWithTimeout guards every cluster run in this file: a transport bug
// must fail the test, not hang the suite.
func runWithTimeout(t *testing.T, d time.Duration, g *graph.Graph, cfg Config,
	program func(id int) congest.Fiber) (*congest.Stats, error) {
	t.Helper()
	type result struct {
		stats *congest.Stats
		err   error
	}
	ch := make(chan result, 1)
	go func() {
		stats, err := Run(g, cfg, program)
		ch <- result{stats, err}
	}()
	select {
	case r := <-ch:
		return r.stats, r.err
	case <-time.After(d):
		t.Fatal("cluster run hung")
		return nil, nil
	}
}

// lockstepStats runs the same program on the reference engine.
func lockstepStats(t *testing.T, g *graph.Graph, bandwidth int,
	program func(id int) congest.Fiber) *congest.Stats {
	t.Helper()
	eng := congest.NewEngine(g, congest.Config{Bandwidth: bandwidth})
	stats, err := eng.Run(program)
	if err != nil {
		t.Fatalf("lockstep: %v", err)
	}
	return stats
}

// steps is the fiber factory running boot on every vertex of g through
// the Step kit. Each run needs a factory of its own.
func steps(g *graph.Graph, boot func(c congest.Context) congest.Step) func(id int) congest.Fiber {
	return congest.StepFiberFactory(g.N(), boot)
}

// retire is the program that finishes at once.
func retire(congest.Context) congest.Step { return congest.Done() }

// done is the continuation that retires a program.
func done(congest.Context, []congest.Inbound) congest.Step { return congest.Done() }

// nextRound parks until the next round and continues with k.
func nextRound(c congest.Context, k congest.Resume) congest.Step {
	return congest.Until(c.Round()+1, k)
}

// stepForever parks for the next round, every round, forever.
func stepForever(c congest.Context) congest.Step {
	return nextRound(c, func(c congest.Context, _ []congest.Inbound) congest.Step { return stepForever(c) })
}

func TestPingPongOverTCP(t *testing.T) {
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1, 7)
	g := b.MustGraph()
	stats, err := runWithTimeout(t, 30*time.Second, g, Config{Shards: 2}, steps(g, func(c congest.Context) congest.Step {
		if c.ID() == 0 {
			c.Send(0, congest.Message{Kind: 5, A: 42})
			return congest.Await(func(c congest.Context, msgs []congest.Inbound) congest.Step {
				if len(msgs) != 1 || msgs[0].Msg.A != 43 {
					t.Errorf("node 0 got %v", msgs)
				}
				return congest.Done()
			})
		}
		return congest.Await(func(c congest.Context, msgs []congest.Inbound) congest.Step {
			if len(msgs) != 1 || msgs[0].Msg.A != 42 {
				t.Errorf("node 1 got %v", msgs)
			}
			c.Send(msgs[0].Port, congest.Message{Kind: 5, A: 43})
			return congest.Done()
		})
	}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.Messages != 2 {
		t.Errorf("Messages = %d, want 2", stats.Messages)
	}
	if stats.ByKind[5] != 2 {
		t.Errorf("ByKind[5] = %d, want 2", stats.ByKind[5])
	}
	if stats.Rounds != 2 {
		t.Errorf("Rounds = %d, want 2", stats.Rounds)
	}
}

func TestWeightAndRoundSemantics(t *testing.T) {
	g := graph.Path(3, graph.GenOptions{})
	_, err := runWithTimeout(t, 30*time.Second, g, Config{Shards: 3}, steps(g, func(c congest.Context) congest.Step {
		if c.ID() == 1 {
			if c.Weight(0) != c.Weight(0) || c.Degree() != 2 {
				t.Error("weight/degree broken")
			}
		}
		i, before := 0, c.Round()
		var k congest.Resume
		k = func(c congest.Context, _ []congest.Inbound) congest.Step {
			if c.Round() != before+1 {
				t.Errorf("round %d -> %d", before, c.Round())
			}
			if i++; i == 5 {
				return congest.Done()
			}
			before = c.Round()
			return nextRound(c, k)
		}
		return nextRound(c, k)
	}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestBandwidthEnforcedOverTCP(t *testing.T) {
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1, 1)
	g := b.MustGraph()
	_, err := runWithTimeout(t, 30*time.Second, g, Config{Shards: 2}, steps(g, func(c congest.Context) congest.Step {
		if c.ID() == 0 {
			c.Send(0, congest.Message{})
			c.Send(0, congest.Message{}) // second on same port, b=1
		}
		return nextRound(c, done)
	}))
	if !errors.Is(err, congest.ErrBandwidth) {
		t.Fatalf("bandwidth violation not reported: %v", err)
	}
}

// TestElkinOverTCPMatchesSimulator is the engine-parity proof on the
// paper's algorithm: identical MST ports and bit-identical stats —
// including Rounds, which the old per-edge synchronizer could only
// bound from below because it paid for idle rounds.
func TestElkinOverTCPMatchesSimulator(t *testing.T) {
	g := graph.Grid(4, 4, graph.GenOptions{Seed: 77})

	elkin := func(ports [][]int) func(id int) congest.Fiber {
		return core.FiberFactory(g.N(), core.Config{}, func(id int, r *core.Result) { ports[id] = r.MSTPorts })
	}
	simPorts := make([][]int, g.N())
	simStats := lockstepStats(t, g, 1, elkin(simPorts))

	tcpPorts := make([][]int, g.N())
	tcpStats, err := runWithTimeout(t, 120*time.Second, g, Config{Shards: 3}, elkin(tcpPorts))
	if err != nil {
		t.Fatalf("tcp: %v", err)
	}

	if err := verify.CheckMST(g, tcpPorts); err != nil {
		t.Errorf("TCP MST invalid: %v", err)
	}
	for v := range simPorts {
		if len(simPorts[v]) != len(tcpPorts[v]) {
			t.Fatalf("vertex %d: simulator %v vs TCP %v", v, simPorts[v], tcpPorts[v])
		}
		for i := range simPorts[v] {
			if simPorts[v][i] != tcpPorts[v][i] {
				t.Fatalf("vertex %d: port lists differ", v)
			}
		}
	}
	if *tcpStats != *simStats {
		t.Errorf("stats differ:\ntcp: rounds=%d msgs=%d\nsim: rounds=%d msgs=%d",
			tcpStats.Rounds, tcpStats.Messages, simStats.Rounds, simStats.Messages)
	}
}

// TestGHSOverTCP runs the second algorithm family over the wire.
func TestGHSOverTCP(t *testing.T) {
	g, err := graph.RandomConnected(12, 24, graph.GenOptions{Seed: 78})
	if err != nil {
		t.Fatal(err)
	}
	ports := make([][]int, g.N())
	program := func() func(id int) congest.Fiber {
		return ghs.FiberFactory(g.N(), func(id int, mstPorts []int) { ports[id] = mstPorts })
	}
	simStats := lockstepStats(t, g, 1, program())
	tcpStats, err := runWithTimeout(t, 60*time.Second, g, Config{Shards: 4}, program())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := verify.CheckMST(g, ports); err != nil {
		t.Errorf("GHS-over-TCP MST invalid: %v", err)
	}
	if *tcpStats != *simStats {
		t.Errorf("GHS stats differ: tcp rounds=%d msgs=%d, sim rounds=%d msgs=%d",
			tcpStats.Rounds, tcpStats.Messages, simStats.Rounds, simStats.Messages)
	}
}

// TestDegenerateInputs is the degenerate-input matrix mirrored from the
// simulator suites: empty graph, singleton, single edge, bandwidth > 1,
// and a program that returns at round 0.
func TestDegenerateInputs(t *testing.T) {
	t.Run("n=0", func(t *testing.T) {
		g := graph.NewBuilder(0).MustGraph()
		stats, err := runWithTimeout(t, 10*time.Second, g, Config{}, steps(g, func(congest.Context) congest.Step {
			t.Error("program ran on empty graph")
			return congest.Done()
		}))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if stats.Rounds != 0 || stats.Messages != 0 {
			t.Errorf("stats = %d/%d, want 0/0", stats.Rounds, stats.Messages)
		}
	})
	t.Run("n=1", func(t *testing.T) {
		g := graph.Path(1, graph.GenOptions{})
		stats, err := runWithTimeout(t, 10*time.Second, g, Config{Shards: 8}, steps(g, func(c congest.Context) congest.Step {
			if c.Degree() != 0 || c.ID() != 0 {
				t.Error("bad singleton context")
			}
			return nextRound(c, done)
		}))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if stats.Rounds != 1 {
			t.Errorf("Rounds = %d, want 1", stats.Rounds)
		}
	})
	t.Run("single-edge", func(t *testing.T) {
		b := graph.NewBuilder(2)
		b.AddEdge(0, 1, 3)
		g := b.MustGraph()
		program := func(c congest.Context) congest.Step {
			c.Send(0, congest.Message{Kind: 9, A: int64(c.ID())})
			return nextRound(c, func(c congest.Context, msgs []congest.Inbound) congest.Step {
				if len(msgs) != 1 || msgs[0].Msg.A != int64(1-c.ID()) {
					t.Errorf("vertex %d got %v", c.ID(), msgs)
				}
				return congest.Done()
			})
		}
		want := lockstepStats(t, g, 1, steps(g, program))
		got, err := runWithTimeout(t, 10*time.Second, g, Config{Shards: 2}, steps(g, program))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if *got != *want {
			t.Errorf("stats differ from lockstep")
		}
	})
	t.Run("bandwidth=3", func(t *testing.T) {
		b := graph.NewBuilder(2)
		b.AddEdge(0, 1, 1)
		g := b.MustGraph()
		program := func(c congest.Context) congest.Step {
			for i := int64(0); i < 3; i++ {
				c.Send(0, congest.Message{Kind: 2, A: i})
			}
			return nextRound(c, func(c congest.Context, msgs []congest.Inbound) congest.Step {
				if len(msgs) != 3 {
					t.Errorf("vertex %d got %d msgs, want 3", c.ID(), len(msgs))
				}
				for i, in := range msgs {
					if in.Msg.A != int64(i) {
						t.Errorf("per-port FIFO broken: msg %d carries %d", i, in.Msg.A)
					}
				}
				return congest.Done()
			})
		}
		want := lockstepStats(t, g, 3, steps(g, program))
		got, err := runWithTimeout(t, 10*time.Second, g, Config{Bandwidth: 3, Shards: 2}, steps(g, program))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if *got != *want {
			t.Errorf("stats differ from lockstep")
		}
	})
	t.Run("return-at-round-0", func(t *testing.T) {
		g := graph.Ring(8, graph.GenOptions{Seed: 5})
		stats, err := runWithTimeout(t, 10*time.Second, g, Config{Shards: 3}, steps(g, func(c congest.Context) congest.Step {
			c.Send(0, congest.Message{Kind: 1}) // sent, delivered to finished peers, still counted
			return congest.Done()
		}))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if stats.Rounds != 0 {
			t.Errorf("Rounds = %d, want 0", stats.Rounds)
		}
		if stats.Messages != 8 {
			t.Errorf("Messages = %d, want 8", stats.Messages)
		}
	})
}

// TestIdleRoundSkipping is the synchronizer's reason to exist: a
// 100000-round park with no traffic must cost a handful of
// wire exchanges, not 100000 of them — while Stats.Rounds still reports
// the deadline round the program observed, exactly like the simulators.
func TestIdleRoundSkipping(t *testing.T) {
	const deadline = 100_000
	g := graph.Path(4, graph.GenOptions{})
	program := func(c congest.Context) congest.Step {
		if c.ID() != 0 {
			return congest.Done()
		}
		return congest.Until(deadline, func(c congest.Context, msgs []congest.Inbound) congest.Step {
			if msgs != nil {
				t.Errorf("vertex 0 woke with %v", msgs)
			}
			if c.Round() != deadline {
				t.Errorf("vertex 0 resumed at %d, want %d", c.Round(), deadline)
			}
			return congest.Done()
		})
	}
	want := lockstepStats(t, g, 1, steps(g, program))
	start := time.Now()
	got, err := runWithTimeout(t, 20*time.Second, g, Config{Shards: 2}, steps(g, program))
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if *got != *want {
		t.Errorf("stats differ: tcp rounds=%d, lockstep rounds=%d", got.Rounds, want.Rounds)
	}
	if got.Rounds != deadline {
		t.Errorf("Rounds = %d, want %d", got.Rounds, deadline)
	}
	// The old per-edge synchronizer paid ~100000 wire round-trips here
	// (minutes); the calendar announcement makes it two exchanges.
	if elapsed > 5*time.Second {
		t.Errorf("idle stretch took %v: idle rounds are not being skipped", elapsed)
	}
}

// TestSocketBudget pins the fd math: the mesh holds exactly
// Shards·(Shards-1)/2 connections however many edges the graph has.
func TestSocketBudget(t *testing.T) {
	g, err := graph.RandomConnected(64, 512, graph.GenOptions{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	c := newCluster(g, Config{Shards: 4}, nil)
	if err := c.connect(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got, want := c.sockets(), 4*3/2; got != want {
		t.Errorf("mesh holds %d sockets, want %d (m=%d edges)", got, want, g.M())
	}
	if got := c.sockets(); got > 4*4 {
		t.Errorf("socket budget exceeded: %d > shards²", got)
	}
	stats, err := c.run(context.Background(), steps(g, func(c congest.Context) congest.Step { return nextRound(c, done) }))
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if stats.Rounds != 1 {
		t.Errorf("Rounds = %d, want 1", stats.Rounds)
	}
}

func TestProgramPanicOverTCP(t *testing.T) {
	g := graph.Path(3, graph.GenOptions{})
	_, err := runWithTimeout(t, 30*time.Second, g, Config{Shards: 3}, steps(g, func(c congest.Context) congest.Step {
		if c.ID() == 1 {
			panic("boom")
		}
		return congest.Await(done) // must unwind when the neighbor dies
	}))
	if err == nil {
		t.Fatal("panic not reported")
	}
}

// TestFaultInjectionConnKill severs one mesh connection mid-run (the
// chaos hook closes the socket under a successfully written batch) and
// asserts the reconnect path heals it transparently: the run completes
// with stats bit-identical to the lockstep engine and the NetSample
// records the recovery. The exhausted-retries counterpart (a peer that
// never comes back must surface a typed *PeerError, not a hang) lives
// in reconnect_test.go.
func TestFaultInjectionConnKill(t *testing.T) {
	g := graph.Ring(12, graph.GenOptions{Seed: 3})
	program := func(c congest.Context) congest.Step {
		// A few rounds of real traffic so batches keep flowing across
		// the healed connection.
		i := 0
		var k congest.Resume
		k = func(c congest.Context, _ []congest.Inbound) congest.Step {
			if i == 8 {
				return congest.Done()
			}
			c.Send(0, congest.Message{Kind: 1, A: int64(i)})
			c.Send(1, congest.Message{Kind: 1, A: int64(i)})
			i++
			return nextRound(c, k)
		}
		return k(c, nil)
	}
	want := lockstepStats(t, g, 2, steps(g, program))
	var net congest.NetSample
	obs := &netRecorder{sink: &net}
	got, err := runWithTimeout(t, 30*time.Second, g, Config{
		Shards:          4,
		Bandwidth:       2,
		ChaosCloseAfter: 3,
		Observer:        obs,
	}, steps(g, program))
	if err != nil {
		t.Fatalf("Run with severed connection: %v", err)
	}
	if *got != *want {
		t.Errorf("stats diverged after reconnect: got rounds=%d messages=%d, want rounds=%d messages=%d",
			got.Rounds, got.Messages, want.Rounds, want.Messages)
	}
	if net.Reconnects < 1 {
		t.Errorf("Reconnects = %d, want >= 1 (the chaos hook closed a socket)", net.Reconnects)
	}
}

// netRecorder captures the final NetSample of a run and counts its
// round events (one per agreed round, plus the final summary).
type netRecorder struct {
	sink   *congest.NetSample
	events int64
}

func (r *netRecorder) OnRound(congest.RoundEvent) { r.events++ }
func (r *netRecorder) OnPhase(congest.PhaseEvent) {}
func (r *netRecorder) OnNet(ns congest.NetSample) { *r.sink = ns }

// TestDeadlockDetectedOverTCP: all programs awaiting a delivery with no
// traffic possible must surface as ErrDeadlock, agreed by every shard.
func TestDeadlockDetectedOverTCP(t *testing.T) {
	g := graph.Path(4, graph.GenOptions{})
	_, err := runWithTimeout(t, 30*time.Second, g, Config{Shards: 2}, steps(g, func(c congest.Context) congest.Step {
		return congest.Await(done)
	}))
	if !errors.Is(err, congest.ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

// TestMaxRoundsOverTCP: the runaway guard must trip on the agreed
// round, like the simulators.
func TestMaxRoundsOverTCP(t *testing.T) {
	g := graph.Path(2, graph.GenOptions{})
	_, err := runWithTimeout(t, 30*time.Second, g, Config{Shards: 2, MaxRounds: 64}, steps(g, stepForever))
	if !errors.Is(err, congest.ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
}

// tokenWalk passes one token down a path graph: vertex 0 sends it at
// round 0 and every later vertex forwards it away from where it came,
// so from round 1 on the shard holding the token is the only busy one.
func tokenWalk(c congest.Context) congest.Step {
	if c.ID() == 0 {
		c.Send(0, congest.Message{Kind: 1})
		return congest.Done()
	}
	return congest.Await(func(c congest.Context, msgs []congest.Inbound) congest.Step {
		if c.Degree() == 2 {
			c.Send(1-msgs[0].Port, congest.Message{Kind: 1, A: int64(c.ID())})
		}
		return congest.Done()
	})
}

// TestBatchesFollowBusyShards pins the synchronizer's wire cost: a
// shard writes only in rounds where it is busy or owes a heartbeat. On
// the token walk every round is played with exactly one busy shard, so
// the batch count is known in closed form; on the round-bound lollipop
// Elkin run, most rounds leave some shard quiet.
func TestBatchesFollowBusyShards(t *testing.T) {
	t.Run("token-walk", func(t *testing.T) {
		const n, nshards = 400, 4
		g := graph.Path(n, graph.GenOptions{})
		want := lockstepStats(t, g, 1, steps(g, tokenWalk))
		var ns congest.NetSample
		got, err := runWithTimeout(t, 30*time.Second, g,
			Config{Shards: nshards, Observer: &netRecorder{sink: &ns}}, steps(g, tokenWalk))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if *got != *want {
			t.Errorf("stats differ: tcp rounds=%d msgs=%d, lockstep rounds=%d msgs=%d",
				got.Rounds, got.Messages, want.Rounds, want.Messages)
		}
		// Round 0 has every shard busy. Round r >= 1 plays with the token
		// at vertex r, whose shard is B(r); every other shard writes a
		// heartbeat once it has not written for heartbeatEvery rounds.
		batches := int64(nshards * (nshards - 1))
		wrote := make([]int, nshards)
		for r := 1; r < n; r++ {
			for j := range wrote {
				if j == r/(n/nshards) || r-wrote[j] >= heartbeatEvery {
					wrote[j] = r
					batches += nshards - 1
				}
			}
		}
		if ns.Batches != batches {
			t.Errorf("Batches = %d, want %d (busy shards plus heartbeats)", ns.Batches, batches)
		}
	})

	t.Run("lollipop-elkin", func(t *testing.T) {
		g := graph.Lollipop(32, 512, graph.GenOptions{Seed: 1})
		program := func() func(id int) congest.Fiber {
			return core.FiberFactory(g.N(), core.Config{}, func(int, *core.Result) {})
		}
		want := lockstepStats(t, g, 1, program())
		var ns congest.NetSample
		rec := &netRecorder{sink: &ns}
		got, err := runWithTimeout(t, 120*time.Second, g, Config{Shards: 4, Observer: rec}, program())
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if *got != *want {
			t.Errorf("stats differ: tcp rounds=%d msgs=%d, lockstep rounds=%d msgs=%d",
				got.Rounds, got.Messages, want.Rounds, want.Messages)
		}
		played := rec.events - 1 // the last event is the end-of-run summary
		allToAll := 4 * 3 * played
		t.Logf("Batches = %d over %d played rounds: %.1f%% of the all-to-all %d",
			ns.Batches, played, 100*float64(ns.Batches)/float64(allToAll), allToAll)
		if ns.Batches*100 > 55*allToAll {
			t.Error("want at most 55% of the all-to-all exchange")
		}
	})
}

// TestRecvBatchRejectsBadAnnouncements feeds a shard batches whose
// announcement contradicts the synchronizer: a calendar in the past, or
// frames and destination set that disagree. Each must fail the round
// rather than stall a shard or wake the wrong one.
func TestRecvBatchRejectsBadAnnouncements(t *testing.T) {
	g := graph.Path(8, graph.GenOptions{})
	c := newCluster(g, Config{Shards: 2}, nil)
	s := c.shards[0]
	s.round = 5
	for _, tc := range []struct {
		name string
		b    *batch
	}{
		{"past-next", &batch{round: 5, next: 5}},
		{"frames-without-destination", &batch{round: 5, next: 6, msgs: []wireMsg{{src: 4, port: 0}}}},
		{"destination-without-frames", &batch{round: 5, next: 6, dests: []int32{0}}},
	} {
		s.links[1].batches <- tc.b
		if err := s.recvBatch(1); err == nil {
			t.Errorf("%s: batch accepted", tc.name)
		}
	}
	s.links[1].batches <- &batch{round: 5, next: 6, dests: []int32{0}, msgs: []wireMsg{{src: 4, port: 0}}}
	if err := s.recvBatch(1); err != nil {
		t.Errorf("consistent batch rejected: %v", err)
	}
}
