// Command mstrun executes one distributed MST algorithm on one
// generated graph under the CONGEST(b log n) simulator and prints the
// measured complexities (and optionally the MST itself).
//
// Examples:
//
//	mstrun -graph random -n 1024 -m 4096 -alg elkin
//	mstrun -graph ring -n 512 -alg ghs
//	mstrun -graph cylinder -rows 8 -cols 128 -alg elkin-fixed-k -b 4
//	mstrun -graph pathmst -n 2048 -alg pipeline -edges
//	mstrun -graph random -n 1000000 -m 3000000 -alg elkin -engine parallel
//	mstrun -graph random -n 1000000 -m 3000000 -alg ghs -engine fiber
//	mstrun -graph random -n 100000 -m 400000 -alg elkin -engine async -async-seed 7
//	mstrun -graph grid -rows 64 -cols 64 -alg elkin -engine cluster -shards 4
//	mstrun -graph random -n 1024 -m 4096 -updates ops.ndjson
//
// With -updates, the computed MST is then repaired incrementally under
// an NDJSON edge-op stream (one {"op":"insert","u":..,"v":..,"w":..}
// or {"op":"delete","u":..,"v":..} per line) instead of recomputed,
// and the replay summary is printed alongside the run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"congestmst"
	"congestmst/internal/obs"
)

func main() {
	var (
		graphType = flag.String("graph", "random", "random | ring | path | grid | cylinder | complete | star | bintree | lollipop | pathmst")
		n         = flag.Int("n", 256, "number of vertices (most graph types)")
		m         = flag.Int("m", 0, "number of edges (random; default 4n)")
		rows      = flag.Int("rows", 8, "rows (grid, cylinder)")
		cols      = flag.Int("cols", 32, "cols (grid, cylinder)")
		clique    = flag.Int("clique", 16, "clique size (lollipop)")
		tail      = flag.Int("tail", 64, "tail length (lollipop)")
		seed      = flag.Uint64("seed", 1, "generator seed")
		weights   = flag.String("weights", "distinct", "distinct | random | unit")
		alg       = flag.String("alg", "elkin", "elkin | elkin-fixed-k | ghs | pipeline")
		engine    = flag.String("engine", "lockstep", "execution engine: "+strings.Join(congestmst.EngineNames(), " | "))
		workers   = flag.Int("workers", 0, "parallel/fiber/async engine worker pool size (0 = GOMAXPROCS)")
		asyncSeed = flag.Uint64("async-seed", 0, "async engine delivery-scheduler seed (same seed = same schedule and identical stats)")
		shards    = flag.Int("shards", 0, "cluster engine shard count (0 = min(4, n)); sockets = shards*(shards-1)/2")
		clusterCf = flag.String("cluster", "", "cluster config file (NDJSON); dispatches -engine cluster to remote mstshard workers")
		bandwidth = flag.Int("b", 1, "CONGEST(b log n) bandwidth")
		root      = flag.Int("root", 0, "BFS root vertex")
		fixedK    = flag.Int("k", 0, "pinned k for elkin-fixed-k (0 = sqrt n)")
		edges     = flag.Bool("edges", false, "print the MST edge list")
		metrics   = flag.Bool("metrics", false, "print the Equation (1) round decomposition (elkin only)")
		timeout   = flag.Duration("timeout", 0, "abort the run after this long (0 = no deadline); Ctrl-C always cancels")
		updates   = flag.String("updates", "", "NDJSON edge-op file replayed through the incremental MST layer after the run")
		traceOut  = flag.String("trace", "", "write an NDJSON run trace (congestmst-trace/v1: per-round and per-phase events) to this file")
	)
	flag.Parse()
	// Ctrl-C (and an optional -timeout) cancel the run through the
	// engine's context: goroutines and cluster sockets unwind cleanly
	// instead of the process dying mid-mesh.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if err := run(ctx, *graphType, *n, *m, *rows, *cols, *clique, *tail, *seed, *weights,
		*alg, *engine, *clusterCf, *workers, *shards, *asyncSeed, *bandwidth, *root, *fixedK, *edges, *metrics, *updates, *traceOut); err != nil {
		fmt.Fprintln(os.Stderr, "mstrun:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, graphType string, n, m, rows, cols, clique, tail int, seed uint64,
	weights, alg, engine, clusterCf string, workers, shards int, asyncSeed uint64, bandwidth, root, fixedK int, printEdges, printMetrics bool, updates, traceOut string) error {
	g, err := congestmst.GraphSpec{
		Type: graphType, N: n, M: m, Rows: rows, Cols: cols,
		Clique: clique, Tail: tail, Seed: seed, Weights: weights,
	}.Build()
	if err != nil {
		return err
	}

	algorithm, err := congestmst.ParseAlgorithm(alg)
	if err != nil {
		return err
	}

	eng, err := congestmst.ParseEngine(engine)
	if err != nil {
		return err
	}

	var met congestmst.Metrics
	runOpts := congestmst.Options{
		Algorithm: algorithm,
		Engine:    eng,
		Workers:   workers,
		Shards:    shards,
		AsyncSeed: asyncSeed,
		Bandwidth: bandwidth,
		Root:      root,
		FixedK:    fixedK,
	}
	if clusterCf != "" {
		if eng != congestmst.Cluster {
			return fmt.Errorf("-cluster requires -engine cluster (got %s)", eng)
		}
		ccfg, err := congestmst.LoadClusterConfig(clusterCf)
		if err != nil {
			return err
		}
		runOpts.Cluster = ccfg
	}
	if printMetrics {
		runOpts.Metrics = &met
	}
	var tr *obs.Trace
	var traceFile *os.File
	if traceOut != "" {
		traceFile, err = os.Create(traceOut)
		if err != nil {
			return err
		}
		tr = obs.NewTrace(traceFile, obs.TraceMeta{
			Algorithm: algorithm.String(), Engine: eng.String(),
			N: g.N(), M: g.M(), Bandwidth: bandwidth,
		})
		runOpts.Observer = tr
	}
	var netCap *netCapture
	if eng == congestmst.Cluster {
		// Capture the socket account so the transport line below can
		// report reconnect/replay activity (the smoke script greps it).
		netCap = &netCapture{inner: runOpts.Observer}
		runOpts.Observer = netCap
	}
	start := time.Now()
	res, err := congestmst.RunContext(ctx, g, runOpts)
	elapsed := time.Since(start)
	if tr != nil {
		// On failure the summary carries the partial counters the engine
		// reached (congestmst.RunError), so an aborted trace still ends
		// with an honest account.
		var rounds, messages int64
		if res != nil {
			rounds, messages = res.Rounds, res.Messages
		}
		var re *congestmst.RunError
		if errors.As(err, &re) && re.Stats != nil {
			rounds, messages = re.Stats.Rounds, re.Stats.Messages
		}
		ferr := tr.Finish(rounds, messages, elapsed, err)
		cerr := traceFile.Close()
		if err == nil {
			if ferr != nil {
				return fmt.Errorf("trace %s: %w", traceOut, ferr)
			}
			if cerr != nil {
				return fmt.Errorf("trace %s: %w", traceOut, cerr)
			}
		}
	}
	if err != nil {
		return err
	}

	fmt.Printf("graph     : %s n=%d m=%d\n", graphType, g.N(), g.M())
	fmt.Printf("algorithm : %s (b=%d)\n", algorithm, bandwidth)
	fmt.Printf("engine    : %s\n", eng)
	fmt.Printf("rounds    : %d\n", res.Rounds)
	fmt.Printf("messages  : %d\n", res.Messages)
	fmt.Printf("wall clock: %v\n", elapsed.Round(time.Millisecond))
	if netCap != nil && netCap.got {
		ns := netCap.sample
		fmt.Printf("transport : sockets=%d dials=%d retries=%d reconnects=%d replayed_frames=%d batches=%d bytes_out=%d bytes_in=%d\n",
			ns.Sockets, ns.Dials, ns.DialRetries, ns.Reconnects, ns.ReplayedFrames, ns.Batches, ns.BytesOut, ns.BytesIn)
		for _, r := range ns.RTTs {
			fmt.Printf("rtt       : shard %d -> %d %v\n", r.Shard, r.Peer, time.Duration(r.Nanos).Round(time.Microsecond))
		}
	}
	check := "verified against Kruskal"
	if g.M() > congestmst.VerifyAutoEdgeLimit {
		check = fmt.Sprintf("structurally checked; Kruskal comparison skipped above %d edges", congestmst.VerifyAutoEdgeLimit)
	}
	fmt.Printf("mst weight: %d (%d edges, %s)\n", res.Weight, len(res.MSTEdges), check)
	if res.K > 0 {
		fmt.Printf("k         : %d\n", res.K)
	}
	if traceOut != "" {
		fmt.Printf("trace     : %s\n", traceOut)
	}
	if algorithm == congestmst.Elkin || algorithm == congestmst.ElkinFixedK {
		fmt.Printf("boruvka   : %d phases\n", res.BoruvkaPhases)
	}
	if printMetrics {
		fmt.Printf("decomposition (Equation 1): build=%d forest=%d register=%d boruvka=%v\n",
			met.BuildRounds, met.ForestRounds, met.RegisterRounds, met.PhaseRounds)
		fmt.Printf("base fragments: %d (max height %d)\n", met.BaseFragments, met.MaxFragHeight)
	}
	if printEdges {
		for _, ei := range res.MSTEdges {
			e := g.Edge(ei)
			fmt.Printf("  (%d, %d) w=%d\n", e.U, e.V, e.W)
		}
	}
	if updates != "" {
		if err := replayUpdates(g, res.MSTEdges, updates); err != nil {
			return err
		}
	}
	return nil
}

// netCapture records the Cluster engine's final socket account while
// forwarding every event to the wrapped observer (if any), so -trace
// and the transport summary line compose.
type netCapture struct {
	inner  congestmst.Observer
	sample congestmst.NetSample
	got    bool
}

func (c *netCapture) OnRound(e congestmst.RoundEvent) {
	if c.inner != nil {
		c.inner.OnRound(e)
	}
}

func (c *netCapture) OnPhase(e congestmst.PhaseEvent) {
	if c.inner != nil {
		c.inner.OnPhase(e)
	}
}

func (c *netCapture) OnShardSample(s congestmst.ShardSample) {
	if so, ok := c.inner.(congestmst.ShardObserver); ok {
		so.OnShardSample(s)
	}
}

func (c *netCapture) OnNet(ns congestmst.NetSample) {
	c.sample = ns
	c.got = true
	if no, ok := c.inner.(congestmst.NetObserver); ok {
		no.OnNet(ns)
	}
}

// replayUpdates repairs the computed MST under the NDJSON op file via
// the incremental layer (no second engine run) and prints the delta,
// the repair-work counters, and a from-scratch verification.
func replayUpdates(g *congestmst.Graph, mst []int, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	ops, err := congestmst.ParseEdgeOps(f, 0)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	sess, err := congestmst.NewDynamicSession(g, mst)
	if err != nil {
		return err
	}
	start := time.Now()
	delta, stats, err := sess.Apply(ops)
	elapsed := time.Since(start)
	if err != nil {
		return err
	}
	fmt.Printf("updates   : %d ops (%d inserts, %d deletes) in %v\n",
		stats.Ops, stats.Inserts, stats.Deletes, elapsed.Round(time.Microsecond))
	fmt.Printf("repairs   : %d swaps, %d joins, %d replacements, %d splits (%d path arcs, %d cut arcs)\n",
		stats.Swaps, stats.Joins, stats.Replacements, stats.Splits, stats.PathArcs, stats.CutArcs)
	fmt.Printf("tree delta: +%d -%d edges\n", len(delta.Added), len(delta.Removed))
	check := "verified against from-scratch recompute"
	patched, _, err := sess.Materialize()
	if err != nil {
		return err
	}
	if patched.M() > congestmst.VerifyAutoEdgeLimit {
		check = fmt.Sprintf("recompute check skipped above %d edges", congestmst.VerifyAutoEdgeLimit)
	} else {
		msf := patched.MSF()
		if w := patched.TotalWeight(msf); w != delta.Weight || len(msf) != sess.TreeSize() {
			return fmt.Errorf("incremental repair diverged from recompute: weight %d vs %d, %d vs %d edges",
				delta.Weight, w, sess.TreeSize(), len(msf))
		}
	}
	fmt.Printf("new forest: weight %d, %d edges, %d component(s), %s\n",
		delta.Weight, sess.TreeSize(), delta.Components, check)
	return nil
}
