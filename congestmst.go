// Package congestmst is a from-scratch reproduction of
//
//	Michael Elkin, "A Simple Deterministic Distributed MST Algorithm,
//	with Near-Optimal Time and Message Complexities", PODC 2017
//	(arXiv:1703.02411),
//
// as a runnable Go library: a deterministic synchronous CONGEST(b log n)
// simulator with enforced per-edge bandwidth, the paper's algorithm
// (BFS tree + interval routing, Controlled-GHS base forest with
// Cole-Vishkin matching, Boruvka-over-τ), and the baselines it is
// measured against (GHS'83 and GKP'98 Pipeline-MST).
//
// Quick start:
//
//	g, _ := congestmst.RandomConnected(1024, 4096, congestmst.GenOptions{Seed: 1})
//	res, err := congestmst.Run(g, congestmst.Options{})
//	// res.MSTEdges is the unique MST; res.Rounds and res.Messages are
//	// honest CONGEST complexities (bandwidth is enforced, not assumed).
package congestmst

import (
	"context"
	"fmt"
	"strings"

	"congestmst/internal/cluster"
	"congestmst/internal/congest"
	"congestmst/internal/core"
	"congestmst/internal/dynamic"
	"congestmst/internal/forest"
	"congestmst/internal/ghs"
	"congestmst/internal/graph"
	"congestmst/internal/mathx"
	"congestmst/internal/nettrans"
	"congestmst/internal/parsim"
	"congestmst/internal/pipeline"
	"congestmst/internal/verify"
)

// Algorithm selects which distributed MST algorithm to run.
type Algorithm int

const (
	// Elkin is the paper's algorithm: deterministic,
	// O((D + sqrt(n/b))·log n) rounds, O(m log n + n log n log* n)
	// messages (Theorems 3.1 and 3.2). The default.
	Elkin Algorithm = iota + 1
	// ElkinFixedK is the Section 1.2 ablation: the paper's algorithm
	// with the base-forest parameter pinned (to Options.FixedK, or
	// sqrt(n) when zero), reproducing the Θ(D·sqrt(n)) message
	// behaviour of the naive strategy when D >> sqrt(n).
	ElkinFixedK
	// GHS is the classical Gallager-Humblet-Spira algorithm:
	// O(n log n) time, O(m + n log n) messages.
	GHS
	// Pipeline is Garay-Kutten-Peleg'98 Pipeline-MST:
	// O(D + sqrt(n)·log* n) time but O(m + n^{3/2}) messages.
	Pipeline
)

func (a Algorithm) String() string {
	switch a {
	case Elkin:
		return "elkin"
	case ElkinFixedK:
		return "elkin-fixed-k"
	case GHS:
		return "ghs"
	case Pipeline:
		return "pipeline"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Engine selects which execution engine runs the program. All of them
// enforce the same CONGEST(b log n) model and report bit-identical
// Rounds, Messages and per-kind statistics; they differ only in how
// wall-clock time and memory scale with the graph and in what carries
// the messages.
type Engine int

const (
	// Lockstep is the single-coordinator engine of internal/congest:
	// it runs every vertex program on the caller's goroutine, has the
	// lowest constant overhead, is the default, and is the reference
	// implementation the other engines are validated against. Use it
	// for graphs up to roughly 10^5 vertices.
	Lockstep Engine = iota
	// Parallel is the event-driven engine of internal/parsim: sparse
	// activation with a calendar heap, a worker pool over vertex
	// shards running the vertex programs inline, and per-shard
	// delivery arenas merged deterministically. Use it for large
	// graphs (10^5 vertices and up) on multi-core hosts; at a million
	// vertices it is the only practical option.
	Parallel
	// Cluster is the TCP engine of internal/nettrans: vertices are
	// partitioned into shards (Options.Shards), each shard pair shares
	// one loopback connection carrying length-prefixed frame batches,
	// and idle rounds are skipped by a per-connection calendar
	// announcement. Use it to exercise the algorithms over a real
	// network transport; the socket count is Shards·(Shards-1)/2,
	// independent of the number of edges.
	Cluster
	// Fiber is another name for Parallel: the same engine, the same
	// code path. It is kept so existing callers and the "fiber" engine
	// name keep working.
	Fiber
	// Async is the parallel engine without the round barrier: per-shard
	// delivery queues drained concurrently with execution, windows
	// closed by an acknowledgment-counting quiescence detector, and an
	// α-synchronizer-style logical clock in place of the global round
	// clock. The contract it promises is deliberately weaker than the
	// barrier engines' bit-identity: the same MST (edges and weight),
	// message totals within the paper's bounds, and — because
	// Options.AsyncSeed fixes the delivery schedule — bit-identical
	// Stats across repeated runs with the same seed. (The current
	// implementation preserves logical synchrony, so its Stats in fact
	// coincide with lockstep; only the weaker contract is promised.)
	Async
)

// engineTable is the single registry of engines: String, ParseEngine
// and EngineNames all derive from it, so adding an engine cannot
// leave a CLI's option listing stale (asserted by TestEngineNames).
var engineTable = []struct {
	e    Engine
	name string
}{
	{Lockstep, "lockstep"},
	{Parallel, "parallel"},
	{Cluster, "cluster"},
	{Fiber, "fiber"},
	{Async, "async"},
}

func (e Engine) String() string {
	for _, ent := range engineTable {
		if ent.e == e {
			return ent.name
		}
	}
	return fmt.Sprintf("Engine(%d)", int(e))
}

// EngineNames returns every valid engine name in declaration order.
// CLIs build their usage strings from it, so the listing cannot go
// stale when an engine is added.
func EngineNames() []string {
	names := make([]string, len(engineTable))
	for i, ent := range engineTable {
		names[i] = ent.name
	}
	return names
}

// ParseEngine converts a command-line engine name (case-insensitively;
// see EngineNames for the valid set) to an Engine. The empty string
// means the default (Lockstep).
func ParseEngine(s string) (Engine, error) {
	t := strings.ToLower(strings.TrimSpace(s))
	if t == "" {
		return Lockstep, nil
	}
	for _, ent := range engineTable {
		if ent.name == t {
			return ent.e, nil
		}
	}
	return 0, fmt.Errorf("congestmst: unknown engine %q (valid: %s)", s, strings.Join(EngineNames(), ", "))
}

// ParseAlgorithm converts a command-line algorithm name ("elkin",
// "elkin-fixed-k", "ghs" or "pipeline", case-insensitively) to an
// Algorithm. The empty string means the default (Elkin).
func ParseAlgorithm(s string) (Algorithm, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "elkin", "":
		return Elkin, nil
	case "elkin-fixed-k":
		return ElkinFixedK, nil
	case "ghs":
		return GHS, nil
	case "pipeline":
		return Pipeline, nil
	default:
		return 0, fmt.Errorf("congestmst: unknown algorithm %q (valid: elkin, elkin-fixed-k, ghs, pipeline)", s)
	}
}

// Re-exported graph construction API. The vertex set is 0..n-1; edge
// weights need not be distinct (ties are broken by the lexicographic
// edge order, making the MST unique).
type (
	// Graph is a weighted undirected input graph.
	Graph = graph.Graph
	// Builder accumulates edges for a custom Graph.
	Builder = graph.Builder
	// Edge is one weighted undirected edge.
	Edge = graph.Edge
	// GenOptions seeds and parameterizes the generators.
	GenOptions = graph.GenOptions
	// WeightMode selects how generators assign weights.
	WeightMode = graph.WeightMode
	// Metrics is the per-stage round decomposition recorded by the τ
	// root (Equation (1) of the paper). Elkin runs only.
	Metrics = core.Metrics
	// ForestTrace records Controlled-GHS phase snapshots for invariant
	// inspection (Lemmas 4.1/4.2). Elkin runs only.
	ForestTrace = forest.Trace
	// Stats are the raw engine counters of a run.
	Stats = congest.Stats
)

// Re-exported observability hook (internal/congest, internal/obs): an
// Options.Observer receives one RoundEvent per played round and one
// PhaseEvent per Elkin stage boundary from whichever engine runs the
// program; implementations of the optional ShardObserver / NetObserver
// extensions additionally receive per-shard workload samples and the
// Cluster engine's socket-level account. A nil Observer costs nothing.
// The obs package provides ready-made implementations (obs.Trace, an
// NDJSON trace sink, and the obs.Registry metrics kit).
type (
	// Observer receives engine progress events during a run.
	Observer = congest.Observer
	// RoundEvent is one played round (cumulative message count).
	RoundEvent = congest.RoundEvent
	// PhaseEvent is one Elkin stage boundary, from the τ root.
	PhaseEvent = congest.PhaseEvent
	// ShardObserver optionally receives per-shard workload samples.
	ShardObserver = congest.ShardObserver
	// ShardSample is one shard's end-of-run workload account.
	ShardSample = congest.ShardSample
	// NetObserver optionally receives the Cluster socket account.
	NetObserver = congest.NetObserver
	// NetSample is the Cluster engine's socket-level account.
	NetSample = congest.NetSample
	// AsyncObserver optionally receives the Async engine's delivery
	// and quiescence events (the sub-window structure RoundEvents
	// cannot carry).
	AsyncObserver = congest.AsyncObserver
	// DeliveryEvent is one shard draining queued messages (Async).
	DeliveryEvent = congest.DeliveryEvent
	// QuiesceEvent is one closed delivery window (Async).
	QuiesceEvent = congest.QuiesceEvent
)

// Re-exported weight modes.
const (
	WeightsDistinct = graph.WeightsDistinct
	WeightsRandom   = graph.WeightsRandom
	WeightsUnit     = graph.WeightsUnit
)

// Re-exported generators.
var (
	NewBuilder      = graph.NewBuilder
	RandomConnected = graph.RandomConnected
	Path            = graph.Path
	Ring            = graph.Ring
	Grid            = graph.Grid
	Cylinder        = graph.Cylinder
	Complete        = graph.Complete
	Star            = graph.Star
	BinaryTree      = graph.BinaryTree
	Lollipop        = graph.Lollipop
	PathMST         = graph.PathMST
)

// NewForestTrace allocates a ForestTrace for a graph of n vertices and
// base-forest parameter k.
func NewForestTrace(n, k int) *ForestTrace { return forest.NewTrace(n, k) }

// Re-exported incremental-update API (internal/dynamic): a computed
// MST plus a stream of edge inserts/deletes is repaired in place —
// insert via the tree-path maximum-weight cycle rule, delete via a
// cut-replacement search — instead of recomputed from scratch. The
// mstserved PATCH /graphs/{digest} endpoint and mstrun's -updates
// replay mode are both built on this layer.
type (
	// DynamicSession maintains the minimum spanning forest of an
	// evolving edge set. Not safe for concurrent use.
	DynamicSession = dynamic.Session
	// EdgeOp is one edge insert or delete, with an NDJSON wire form.
	EdgeOp = dynamic.EdgeOp
	// EdgeOpKind tags an EdgeOp as OpInsert or OpDelete.
	EdgeOpKind = dynamic.OpKind
	// UpdateDelta is the net tree change of one Apply batch.
	UpdateDelta = dynamic.Delta
	// UpdateStats counts the repair work one Apply batch performed.
	UpdateStats = dynamic.Stats
)

// Re-exported edge-op kinds.
const (
	OpInsert = dynamic.Insert
	OpDelete = dynamic.Delete
)

// Re-exported distributed-cluster API (internal/cluster): a cluster
// config file maps shard IDs to mstshard worker addresses; setting
// Options.Cluster makes the Cluster engine dispatch the run to those
// workers instead of spawning in-process shards. Statistics stay
// bit-identical either way.
type (
	// ClusterConfig places the shards of a distributed run and tunes
	// the mesh transport. Load one with LoadClusterConfig or build it
	// in code.
	ClusterConfig = cluster.Config
	// ClusterEntry is one shard's placement (bind/advertise address).
	ClusterEntry = cluster.Entry
	// ClusterWorkerError identifies the worker that failed a
	// distributed run (errors.As against a Run error).
	ClusterWorkerError = cluster.WorkerError
)

// LoadClusterConfig reads an NDJSON cluster config file (header line
// with "cluster":"v1" and "shards", then one placement line per
// shard).
var LoadClusterConfig = cluster.Load

// Re-exported incremental-update constructors.
var (
	// NewDynamicSession starts a session over a graph with a computed
	// MST (edge indices, e.g. Result.MSTEdges or Graph.MSF()) as the
	// starting forest.
	NewDynamicSession = dynamic.NewSession
	// ParseEdgeOps reads an NDJSON edge-op stream (one object per
	// line: {"op":"insert","u":..,"v":..,"w":..} or
	// {"op":"delete","u":..,"v":..}).
	ParseEdgeOps = dynamic.ParseOps
)

// VerifyMode selects how much post-run checking Run performs on the
// computed MST.
type VerifyMode int

const (
	// VerifyAuto (the default) compares the output against Kruskal's
	// MST on graphs up to VerifyAutoEdgeLimit edges and skips the
	// O(m log m) ground-truth recomputation above it; the structural
	// check (every reported edge marked at exactly both endpoints)
	// always runs. Million-vertex runs thus stop paying for ground
	// truth the test suite already proves at small scale.
	VerifyAuto VerifyMode = iota
	// VerifyFull always runs the Kruskal comparison, whatever the size.
	VerifyFull
	// VerifyOff skips the Kruskal comparison entirely (the structural
	// check still runs — an inconsistent marking is always an error).
	VerifyOff
)

// VerifyAutoEdgeLimit is the edge count above which VerifyAuto stops
// recomputing the ground-truth MST.
const VerifyAutoEdgeLimit = 1 << 18

// Options configures a Run.
type Options struct {
	// Algorithm selects the MST algorithm (default Elkin).
	Algorithm Algorithm
	// Engine selects the execution engine (default Lockstep). All
	// engines produce identical results and statistics; Parallel (also
	// named Fiber) scales to million-vertex graphs on multi-core hosts,
	// Cluster runs over loopback TCP.
	Engine Engine
	// Workers sets the worker-pool size of the Parallel and Fiber
	// engines (default GOMAXPROCS). Ignored by the other engines.
	Workers int
	// Shards sets the Cluster engine's shard count; the run holds
	// Shards·(Shards-1)/2 TCP connections (default min(4, n)). Ignored
	// by the other engines.
	Shards int
	// AsyncSeed seeds the Async engine's delivery scheduler: runs with
	// the same seed replay the same slice-claim order, and with
	// Workers: 1 the entire physical schedule — including every
	// observer event — is reproduced exactly. Stats are bit-identical
	// across seeds and worker counts. Ignored by the other engines.
	AsyncSeed uint64
	// Bandwidth is the CONGEST(b log n) parameter: messages per edge
	// per direction per round (default 1, the standard CONGEST model).
	Bandwidth int
	// Root designates the BFS root (Elkin, ElkinFixedK, Pipeline).
	Root int
	// FixedK pins the base-forest parameter for ElkinFixedK.
	FixedK int
	// MaxRounds aborts runaway executions (default 100 million).
	MaxRounds int64
	// Metrics, if non-nil, receives the Equation (1) decomposition
	// (Elkin and ElkinFixedK only).
	Metrics *Metrics
	// ForestTrace, if non-nil, receives Controlled-GHS phase snapshots
	// (Elkin and ElkinFixedK only).
	ForestTrace *ForestTrace
	// Cluster, if non-nil, makes the Cluster engine dispatch the run to
	// remote mstshard workers per the config (see LoadClusterConfig)
	// instead of spawning in-process shards. Only valid with Engine ==
	// Cluster; the config's shard count takes the place of Shards.
	Cluster *ClusterConfig
	// Observer, if non-nil, receives round and phase events while the
	// run executes (all engines; see the Observer type). Callbacks must
	// be fast, non-blocking and safe for concurrent use; they must not
	// perturb the run (statistics stay bit-identical with or without an
	// observer attached). Distributed runs (Cluster set) emit only the
	// final round event plus shard and net samples — the per-round
	// events play on the workers.
	Observer Observer
	// Verify selects the post-run check level (default VerifyAuto).
	Verify VerifyMode
}

// Result reports a completed run.
type Result struct {
	// MSTEdges are the indices (into g.Edges()) of the computed MST.
	MSTEdges []int
	// Weight is the total MST weight.
	Weight int64
	// PortsByVertex is each vertex's local view: the ports of its
	// incident MST edges ("every vertex knows which of its edges are in
	// the MST", Section 2).
	PortsByVertex [][]int
	// Rounds and Messages are the measured CONGEST complexities.
	Rounds, Messages int64
	// Stats carries the per-message-kind counters.
	Stats *Stats
	// K is the base-forest parameter used (Elkin variants, Pipeline).
	K int
	// BoruvkaPhases counts Boruvka-over-τ phases (Elkin variants).
	BoruvkaPhases int
}

// ErrDisconnected is returned for graphs with more than one component.
var ErrDisconnected = graph.ErrDisconnected

// RunError is the error Run and RunContext return when the selected
// engine fails mid-run (MaxRounds exceeded, context cancelled,
// deadlock, bandwidth violation, ...). It carries the partial
// statistics the engine had accumulated when it aborted, so callers —
// and error messages — can report how far a failed run got instead of
// dropping the counters. Unwrap exposes the engine error, so
// errors.Is(err, context.Canceled) and friends keep working.
type RunError struct {
	// Algorithm and Engine identify the aborted run.
	Algorithm Algorithm
	Engine    Engine
	// Stats are the counters at the moment of failure (partial: the
	// run did not complete). Nil when the engine failed before playing
	// any round.
	Stats *Stats
	// Err is the underlying engine error.
	Err error
}

func (e *RunError) Error() string {
	if e.Stats != nil && (e.Stats.Rounds > 0 || e.Stats.Messages > 0) {
		return fmt.Sprintf("congestmst: %s (%s): %v (aborted after %d rounds, %d messages)",
			e.Algorithm, e.Engine, e.Err, e.Stats.Rounds, e.Stats.Messages)
	}
	return fmt.Sprintf("congestmst: %s (%s): %v", e.Algorithm, e.Engine, e.Err)
}

func (e *RunError) Unwrap() error { return e.Err }

// Validate rejects malformed options for a graph on n vertices before
// any engine is spawned, so a bad Root or a negative knob surfaces as a
// named-option error instead of a deep engine failure (deadlock, panic,
// or silent coercion). Run and RunContext call it; services that queue
// work can call it at admission time to fail fast.
func (o Options) Validate(n int) error {
	if o.Root < 0 || (n > 0 && o.Root >= n) {
		return fmt.Errorf("congestmst: Options.Root %d out of range [0,%d)", o.Root, n)
	}
	if o.Bandwidth < 0 {
		return fmt.Errorf("congestmst: Options.Bandwidth %d is negative (0 means the default of 1)", o.Bandwidth)
	}
	if o.Workers < 0 {
		return fmt.Errorf("congestmst: Options.Workers %d is negative (0 means GOMAXPROCS)", o.Workers)
	}
	if o.Shards < 0 {
		return fmt.Errorf("congestmst: Options.Shards %d is negative (0 means min(4, n))", o.Shards)
	}
	if o.FixedK < 0 {
		return fmt.Errorf("congestmst: Options.FixedK %d is negative (0 means sqrt(n))", o.FixedK)
	}
	if o.MaxRounds < 0 {
		return fmt.Errorf("congestmst: Options.MaxRounds %d is negative (0 means the default of 100 million)", o.MaxRounds)
	}
	if o.Cluster != nil {
		if o.Engine != Cluster {
			return fmt.Errorf("congestmst: Options.Cluster is set but Engine is %v, not Cluster", o.Engine)
		}
		if o.Shards != 0 && o.Shards != o.Cluster.Shards {
			return fmt.Errorf("congestmst: Options.Shards %d disagrees with the cluster config's %d shards",
				o.Shards, o.Cluster.Shards)
		}
		if len(o.Cluster.Entries) != o.Cluster.Shards {
			return fmt.Errorf("congestmst: cluster config places %d of %d shards",
				len(o.Cluster.Entries), o.Cluster.Shards)
		}
	}
	return nil
}

// Run executes the selected algorithm on g under the CONGEST(b log n)
// model and returns the computed MST with its measured complexities.
// The output is checked against Kruskal's algorithm before returning
// as selected by Options.Verify.
func Run(g *Graph, opts Options) (*Result, error) {
	return RunContext(context.Background(), g, opts)
}

// RunContext is Run under a context: cancelling ctx (or letting its
// deadline expire) stops the selected engine at the next round
// boundary, tears down its workers (and, for the Cluster engine, its
// TCP mesh), and returns an error wrapping context.Canceled or
// context.DeadlineExceeded. There is no separate Options deadline knob:
// wrap the context with context.WithTimeout or context.WithDeadline.
func RunContext(ctx context.Context, g *Graph, opts Options) (*Result, error) {
	if err := opts.Validate(g.N()); err != nil {
		return nil, err
	}
	if g.N() > 0 && !g.Connected() {
		return nil, ErrDisconnected
	}
	if opts.Algorithm == 0 {
		opts.Algorithm = Elkin
	}
	ports := make([][]int, g.N())
	res := &Result{PortsByVertex: ports}

	switch opts.Algorithm {
	case Elkin, ElkinFixedK, GHS, Pipeline:
	default:
		return nil, fmt.Errorf("congestmst: unknown algorithm %v", opts.Algorithm)
	}

	var stats *Stats
	var err error
	switch opts.Engine {
	case Lockstep:
		engine := congest.NewEngine(g, congest.Config{
			Bandwidth: opts.Bandwidth,
			MaxRounds: opts.MaxRounds,
			Observer:  opts.Observer,
		})
		stats, err = engine.RunContext(ctx, program(opts, g.N(), ports, res))
	case Parallel, Fiber:
		engine := parsim.NewEngine(g, parsimConfig(opts))
		stats, err = engine.RunContext(ctx, program(opts, g.N(), ports, res))
	case Async:
		engine := parsim.NewEngine(g, parsimConfig(opts))
		stats, err = engine.RunAsync(ctx, program(opts, g.N(), ports, res), opts.AsyncSeed)
	case Cluster:
		if opts.Cluster != nil {
			// Distributed mode: the workers run the program; the driver
			// partitions identically, merges their stats, and scatters
			// their port lists into the same slice the local engines
			// fill, so verification below is engine-agnostic.
			var dres *cluster.DispatchResult
			dres, err = cluster.Dispatch(ctx, g, opts.Cluster, cluster.DispatchOptions{
				Algorithm: opts.Algorithm.String(),
				Root:      opts.Root,
				FixedK:    opts.FixedK,
				Bandwidth: opts.Bandwidth,
				MaxRounds: opts.MaxRounds,
				Observer:  opts.Observer,
			})
			if err == nil {
				stats = dres.Stats
				copy(ports, dres.Ports)
				res.K = dres.K
				res.BoruvkaPhases = dres.BoruvkaPhases
			}
		} else {
			stats, err = nettrans.RunContext(ctx, g, nettrans.Config{
				Bandwidth: opts.Bandwidth,
				MaxRounds: opts.MaxRounds,
				Shards:    opts.Shards,
				Observer:  opts.Observer,
			}, program(opts, g.N(), ports, res))
		}
	default:
		return nil, fmt.Errorf("congestmst: unknown engine %v", opts.Engine)
	}
	if err != nil {
		return nil, &RunError{Algorithm: opts.Algorithm, Engine: opts.Engine, Stats: stats, Err: err}
	}
	res.Stats = stats
	res.Rounds = stats.Rounds
	res.Messages = stats.Messages

	edges, err := verify.MSTFromPorts(g, ports)
	if err != nil {
		return nil, fmt.Errorf("congestmst: %s produced an inconsistent marking: %w", opts.Algorithm, err)
	}
	res.MSTEdges = edges
	res.Weight = g.TotalWeight(edges)
	mode := opts.Verify
	if mode == VerifyAuto && g.M() > VerifyAutoEdgeLimit {
		mode = VerifyOff
	}
	if mode != VerifyOff {
		// The edge list extracted above is threaded into the check, so
		// the ports are walked once per run, not twice.
		if err := verify.CheckEdges(g, edges); err != nil {
			return nil, fmt.Errorf("congestmst: %s output failed verification: %w", opts.Algorithm, err)
		}
	}
	return res, nil
}

// program returns the fiber factory of the selected algorithm, writing
// each vertex's MST ports into ports (and the root vertex's run
// parameters into res) on completion. RunContext has already rejected
// unknown algorithms, so the Elkin variants are the remaining case.
func program(opts Options, n int, ports [][]int, res *Result) func(id int) congest.Fiber {
	switch opts.Algorithm {
	case GHS:
		return ghs.FiberFactory(n, func(id int, mstPorts []int) { ports[id] = mstPorts })
	case Pipeline:
		return pipeline.FiberFactory(n, opts.Root, func(id int, r *pipeline.Result) {
			ports[id] = r.MSTPorts
			if id == opts.Root {
				res.K = r.K
			}
		})
	default:
		return core.FiberFactory(n, elkinConfig(opts, n), func(id int, r *core.Result) {
			ports[id] = r.MSTPorts
			if id == opts.Root {
				res.K = r.K
				res.BoruvkaPhases = r.BoruvkaPhases
			}
		})
	}
}

// parsimConfig is the parsim.Config of the Parallel, Fiber and Async
// engines.
func parsimConfig(opts Options) parsim.Config {
	return parsim.Config{
		Bandwidth: opts.Bandwidth,
		MaxRounds: opts.MaxRounds,
		Workers:   opts.Workers,
		Observer:  opts.Observer,
	}
}

// elkinConfig builds the core.Config for an Elkin-variant run,
// resolving FixedK.
func elkinConfig(opts Options, n int) core.Config {
	cfg := core.Config{
		Root:        opts.Root,
		Metrics:     opts.Metrics,
		ForestTrace: opts.ForestTrace,
		Observer:    opts.Observer,
	}
	if opts.Algorithm == ElkinFixedK {
		cfg.FixedK = opts.FixedK
		if cfg.FixedK == 0 {
			cfg.FixedK = mathx.Max(1, mathx.ISqrtCeil(n))
		}
	}
	return cfg
}

// MST computes the unique MST of g with the paper's algorithm under
// default options and returns the edge indices.
func MST(g *Graph) ([]int, error) {
	res, err := Run(g, Options{})
	if err != nil {
		return nil, err
	}
	return res.MSTEdges, nil
}
