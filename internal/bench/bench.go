// Package bench defines the reproduction experiments E1-E10, one per
// claim of the paper, each regenerating a table (the README's
// "Experiments E1–E10" section lists them). The same definitions back
// cmd/mstbench and the root-level testing.B benchmarks.
//
// The paper is a theory paper with no empirical tables, so the "tables"
// reproduced here are its complexity claims: each experiment reports
// the measured rounds/messages next to the corresponding bound formula
// and their ratio, which must stay flat (bounded by a constant) across
// the sweep for the claim to hold in this implementation.
//
// Every experiment runs on Lockstep, the reference engine. The tables
// hold only rounds, messages and forest structure, which the engine
// matrix tests pin equal on every engine; engine speed and memory are
// measured by perfbench.
package bench

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"congestmst"
	"congestmst/internal/bfstree"
	"congestmst/internal/congest"
	"congestmst/internal/forest"
	"congestmst/internal/graph"
	"congestmst/internal/mathx"
	"congestmst/internal/obs"
)

// BaseContext is the context every experiment run executes under.
// cmd/mstbench wires Ctrl-C into it so a multi-minute sweep cancels at
// the next round boundary instead of dying mid-run; tests leave it as
// Background.
var BaseContext = context.Background()

// TraceDir, when non-empty (mstbench -trace), makes every runAlg
// execution write an NDJSON run trace (obs.TraceSchema) to a
// sequentially numbered file in that directory, named after the
// algorithm and engine of the run.
var TraceDir string

var traceSeq atomic.Int64

// Table is one experiment's rendered result.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper formula or statement being reproduced
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Format renders the table as fixed-width text.
func (t *Table) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s\n", strings.ToUpper(t.ID), t.Title)
	fmt.Fprintf(&b, "   claim: %s\n", t.Claim)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "   note: %s\n", n)
	}
	return b.String()
}

// Experiment is a registered reproduction experiment.
type Experiment struct {
	ID    string
	Title string
	// Run executes the experiment; full selects the larger sweeps
	// (false = the quicker scale used by tests and `go test -bench`).
	Run func(full bool) (*Table, error)
}

// All returns the experiments in order.
func All() []Experiment {
	return []Experiment{
		{"e1", "Base forest construction (Theorem 4.3)", E1BaseForest},
		{"e2", "Controlled-GHS invariants (Lemmas 4.1, 4.2)", E2Invariants},
		{"e3", "Low-diameter regime (Theorem 3.1, Equation (1))", E3LowDiameter},
		{"e4", "High-diameter regime, k = D (Theorem 3.1)", E4HighDiameter},
		{"e5", "k = sqrt(n) ablation vs k = D (Section 1.2)", E5Ablation},
		{"e6", "CONGEST(b log n) bandwidth sweep (Theorem 3.2)", E6Bandwidth},
		{"e7", "Baseline comparison (Section 1.1)", E7Baselines},
		{"e8", "Convergence constants: Cole-Vishkin and Boruvka halving", E8Convergence},
		{"e9", "Time separation vs GHS on its adversarial workload (Section 1.1)", E9GHSAdversary},
		{"e10", "Message separation vs Pipeline-MST (Section 1.1)", E10PipelineMessages},
	}
}

// Lookup returns the experiment with the given id.
func Lookup(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// ---- shared helpers ----

func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
func d(x int64) string    { return fmt.Sprintf("%d", x) }
func di(x int) string     { return fmt.Sprintf("%d", x) }
func ratio(a, b int64) string {
	if b == 0 {
		return "-"
	}
	return f2(float64(a) / float64(b))
}

// tauTraffic sums the τ up/downcast message kinds (the Θ(D·|F|) term
// of Section 1.2): pipelined upcast items and markers, routed relabels
// and flushes.
func tauTraffic(s *congestmst.Stats) int64 {
	return s.ByKind[bfstree.KindUp] + s.ByKind[bfstree.KindUpDone] +
		s.ByKind[bfstree.KindRoute] + s.ByKind[bfstree.KindRouteFlush]
}

// runAlg is congestmst.RunContext on Lockstep under BaseContext, with
// optional per-run trace capture (TraceDir).
func runAlg(g *graph.Graph, opts congestmst.Options) (*congestmst.Result, error) {
	if TraceDir == "" {
		return congestmst.RunContext(BaseContext, g, opts)
	}
	alg := opts.Algorithm
	if alg == 0 {
		alg = congestmst.Elkin
	}
	bw := opts.Bandwidth
	if bw == 0 {
		bw = 1
	}
	name := fmt.Sprintf("run-%03d-%s-%s.ndjson", traceSeq.Add(1), alg, opts.Engine)
	f, err := os.Create(filepath.Join(TraceDir, name))
	if err != nil {
		return nil, fmt.Errorf("bench: trace: %w", err)
	}
	tr := obs.NewTrace(f, obs.TraceMeta{
		Algorithm: alg.String(), Engine: opts.Engine.String(),
		N: g.N(), M: g.M(), Bandwidth: bw,
	})
	opts.Observer = tr
	start := time.Now()
	res, runErr := congestmst.RunContext(BaseContext, g, opts)
	var rounds, messages int64
	if res != nil {
		rounds, messages = res.Rounds, res.Messages
	}
	var re *congestmst.RunError
	if errors.As(runErr, &re) && re.Stats != nil {
		rounds, messages = re.Stats.Rounds, re.Stats.Messages
	}
	ferr := tr.Finish(rounds, messages, time.Since(start), runErr)
	cerr := f.Close()
	if runErr != nil {
		return res, runErr
	}
	if ferr != nil {
		return nil, fmt.Errorf("bench: trace %s: %w", name, ferr)
	}
	if cerr != nil {
		return nil, fmt.Errorf("bench: trace %s: %w", name, cerr)
	}
	return res, nil
}

// forestRun builds τ (for alignment and n/D discovery) and the base
// forest alone, returning per-vertex states, the trace, and stats.
func forestRun(g *graph.Graph, k int, bandwidth int) ([]*forest.State, *forest.Trace, *congest.Stats, error) {
	states := make([]*forest.State, g.N())
	trace := forest.NewTrace(g.N(), k)
	factory := congest.StepFiberFactory(g.N(), func(c congest.Context) congest.Step {
		return bfstree.Build(c, 0, func(c congest.Context, _ *bfstree.Tree) congest.Step {
			return forest.Program(c, k, trace, func(c congest.Context, st *forest.State) congest.Step {
				states[c.ID()] = st
				return congest.Done()
			})
		})
	})
	stats, err := congest.NewEngine(g, congest.Config{Bandwidth: bandwidth}).RunContext(BaseContext, factory)
	return states, trace, stats, err
}

func mustRandom(n, m int, seed uint64) *graph.Graph {
	g, err := graph.RandomConnected(n, m, graph.GenOptions{Seed: seed})
	if err != nil {
		panic(err)
	}
	return g
}

// fragStats computes fragment count, min size and max diameter from
// per-vertex fragment ids and parent ports.
func fragStats(g *graph.Graph, fragID []int64, parent []int) (count, minSize, maxDiam int) {
	adj := make([][]int, g.N())
	for v, pp := range parent {
		if pp < 0 {
			continue
		}
		u := g.Adj(v)[pp].To
		adj[v] = append(adj[v], u)
		adj[u] = append(adj[u], v)
	}
	members := make(map[int64][]int)
	for v, f := range fragID {
		members[f] = append(members[f], v)
	}
	minSize = g.N()
	for _, vs := range members {
		if len(vs) < minSize {
			minSize = len(vs)
		}
		if dm := treeDiameter(adj, vs); dm > maxDiam {
			maxDiam = dm
		}
	}
	return len(members), minSize, maxDiam
}

func treeDiameter(adj [][]int, members []int) int {
	allowed := make(map[int]bool, len(members))
	for _, v := range members {
		allowed[v] = true
	}
	bfs := func(src int) (int, int) {
		dist := map[int]int{src: 0}
		queue := []int{src}
		far, best := src, 0
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range adj[v] {
				if allowed[u] {
					if _, ok := dist[u]; !ok {
						dist[u] = dist[v] + 1
						if dist[u] > best {
							best, far = dist[u], u
						}
						queue = append(queue, u)
					}
				}
			}
		}
		return far, best
	}
	far, _ := bfs(members[0])
	_, dm := bfs(far)
	return dm
}

func logStar(n int) int { return mathx.LogStar(n) }
func log2c(n int) int   { return mathx.Log2Ceil(n) }
func isqrt(n int) int   { return mathx.ISqrtCeil(n) }
