package congestmst_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"congestmst"
	"congestmst/internal/congest"
	"congestmst/internal/nettrans"
	"congestmst/internal/parsim"
)

// enginesUnderTest configures the non-reference engines of the matrix:
// Parallel with enough workers to force real cross-shard traffic,
// Cluster with enough shards to force real cross-socket traffic, and
// Fiber (another name for Parallel) with the same worker spread.
var enginesUnderTest = []congestmst.Options{
	{Engine: congestmst.Parallel, Workers: 3},
	{Engine: congestmst.Cluster, Shards: 3},
	{Engine: congestmst.Fiber, Workers: 3},
}

// requireSameRun asserts the full cross-engine contract between a
// reference result and another engine's result.
func requireSameRun(t *testing.T, name string, ref, got *congestmst.Result) {
	t.Helper()
	if ref.Rounds != got.Rounds {
		t.Errorf("Rounds: lockstep %d, %s %d", ref.Rounds, name, got.Rounds)
	}
	if ref.Messages != got.Messages {
		t.Errorf("Messages: lockstep %d, %s %d", ref.Messages, name, got.Messages)
	}
	if *ref.Stats != *got.Stats {
		t.Errorf("ByKind counters differ between lockstep and %s", name)
	}
	if ref.Weight != got.Weight {
		t.Errorf("Weight: lockstep %d, %s %d", ref.Weight, name, got.Weight)
	}
	if len(ref.MSTEdges) != len(got.MSTEdges) {
		t.Fatalf("MST sizes differ: %d vs %d", len(ref.MSTEdges), len(got.MSTEdges))
	}
	for i := range ref.MSTEdges {
		if ref.MSTEdges[i] != got.MSTEdges[i] {
			t.Fatalf("MST edge %d differs: %d vs %d", i, ref.MSTEdges[i], got.MSTEdges[i])
		}
	}
}

// lockstepReference pins the reference engine itself: Lockstep's
// Rounds, Messages and non-zero ByKind counters for every
// (graph, algorithm) cell of TestEngineMatrixDeterminism. The other
// engines are compared with Lockstep, so without this table a change
// that shifted the reference would shift every comparison with it and
// still pass.
var lockstepReference = map[string]struct {
	rounds, messages int64
	byKind           map[uint8]int64
}{
	"path-48/elkin":               {20380, 5891, map[uint8]int64{1: 47, 2: 47, 4: 47, 5: 47, 6: 47, 7: 94, 9: 20, 10: 94, 20: 1572, 21: 1663, 22: 64, 23: 51, 24: 564, 25: 73, 26: 1066, 27: 26, 28: 6, 29: 21, 30: 248, 50: 94}},
	"path-48/elkin-fixed-k":       {3333, 4529, map[uint8]int64{1: 47, 2: 47, 4: 47, 5: 47, 6: 47, 7: 188, 9: 375, 10: 188, 11: 296, 12: 94, 20: 663, 21: 644, 22: 21, 23: 15, 24: 282, 25: 66, 26: 1014, 27: 24, 28: 6, 29: 18, 30: 109, 50: 282, 51: 9}},
	"path-48/ghs":                 {192, 761, map[uint8]int64{80: 94, 81: 72, 82: 192, 83: 64, 84: 42, 85: 22, 86: 192, 87: 35, 88: 48}},
	"path-48/pipeline":            {2795, 3387, map[uint8]int64{1: 47, 2: 47, 4: 47, 5: 47, 6: 47, 20: 495, 21: 560, 22: 21, 23: 15, 24: 282, 25: 66, 26: 1014, 27: 24, 28: 6, 29: 18, 30: 109, 100: 119, 101: 47, 102: 235, 103: 47, 104: 94}},
	"grid-6x8/elkin":              {5329, 4806, map[uint8]int64{1: 82, 2: 47, 3: 35, 4: 47, 5: 47, 6: 47, 7: 141, 9: 54, 10: 141, 11: 27, 12: 47, 20: 880, 21: 885, 22: 14, 23: 14, 24: 656, 25: 65, 26: 1040, 27: 21, 28: 7, 29: 23, 30: 154, 50: 328, 51: 4}},
	"grid-6x8/elkin-fixed-k":      {2837, 4242, map[uint8]int64{1: 82, 2: 47, 3: 35, 4: 47, 5: 47, 6: 47, 7: 188, 9: 110, 10: 188, 11: 84, 12: 94, 20: 551, 21: 509, 22: 6, 23: 7, 24: 492, 25: 61, 26: 988, 27: 19, 28: 7, 29: 23, 30: 110, 50: 492, 51: 8}},
	"grid-6x8/ghs":                {75, 829, map[uint8]int64{80: 164, 81: 63, 82: 144, 83: 148, 84: 68, 85: 32, 86: 144, 87: 18, 88: 48}},
	"grid-6x8/pipeline":           {2585, 3393, map[uint8]int64{1: 82, 2: 47, 3: 35, 4: 47, 5: 47, 6: 47, 20: 383, 21: 425, 22: 6, 23: 7, 24: 492, 25: 61, 26: 988, 27: 19, 28: 7, 29: 23, 30: 110, 100: 74, 101: 47, 102: 235, 103: 47, 104: 164}},
	"lollipop-8+24/elkin":         {10360, 3656, map[uint8]int64{1: 73, 2: 31, 3: 42, 4: 31, 5: 31, 6: 31, 7: 62, 9: 3, 10: 62, 20: 840, 21: 868, 22: 20, 23: 19, 24: 520, 25: 48, 26: 702, 27: 17, 28: 4, 29: 14, 30: 134, 50: 104}},
	"lollipop-8+24/elkin-fixed-k": {2886, 2639, map[uint8]int64{1: 73, 2: 31, 3: 42, 4: 31, 5: 31, 6: 31, 7: 93, 9: 64, 10: 93, 11: 32, 12: 31, 20: 384, 21: 362, 22: 9, 23: 9, 24: 312, 25: 44, 26: 650, 27: 16, 28: 4, 29: 12, 30: 73, 50: 208, 51: 4}},
	"lollipop-8+24/ghs":           {94, 518, map[uint8]int64{80: 104, 81: 45, 82: 96, 83: 69, 84: 27, 85: 30, 86: 96, 87: 19, 88: 32}},
	"lollipop-8+24/pipeline":      {2652, 2281, map[uint8]int64{1: 73, 2: 31, 3: 42, 4: 31, 5: 31, 6: 31, 20: 300, 21: 334, 22: 9, 23: 9, 24: 312, 25: 44, 26: 650, 27: 16, 28: 4, 29: 12, 30: 73, 100: 20, 101: 31, 102: 93, 103: 31, 104: 104}},
	"random-96/elkin":             {5280, 12643, map[uint8]int64{1: 407, 2: 95, 3: 312, 4: 95, 5: 95, 6: 95, 7: 380, 9: 46, 10: 380, 11: 32, 12: 190, 20: 1896, 21: 1911, 22: 21, 23: 19, 24: 2304, 25: 134, 26: 2080, 27: 44, 28: 17, 29: 46, 30: 308, 50: 1728, 51: 8}},
	"random-96/elkin-fixed-k":     {5280, 12643, map[uint8]int64{1: 407, 2: 95, 3: 312, 4: 95, 5: 95, 6: 95, 7: 380, 9: 46, 10: 380, 11: 32, 12: 190, 20: 1896, 21: 1911, 22: 21, 23: 19, 24: 2304, 25: 134, 26: 2080, 27: 44, 28: 17, 29: 46, 30: 308, 50: 1728, 51: 8}},
	"random-96/ghs":               {116, 2591, map[uint8]int64{80: 576, 81: 130, 82: 384, 83: 572, 84: 278, 85: 158, 86: 384, 87: 13, 88: 96}},
	"random-96/pipeline":          {5037, 10774, map[uint8]int64{1: 407, 2: 95, 3: 312, 4: 95, 5: 95, 6: 95, 20: 1536, 21: 1731, 22: 21, 23: 19, 24: 2304, 25: 134, 26: 2080, 27: 44, 28: 17, 29: 46, 30: 308, 100: 194, 101: 95, 102: 475, 103: 95, 104: 576}},
}

// requireReference asserts one Lockstep run against its pinned cell.
func requireReference(t *testing.T, cell string, got *congestmst.Result) {
	t.Helper()
	want, ok := lockstepReference[cell]
	if !ok {
		t.Fatalf("no pinned reference for %s", cell)
	}
	if got.Rounds != want.rounds || got.Messages != want.messages {
		t.Errorf("lockstep %s: rounds/messages %d/%d, pinned %d/%d",
			cell, got.Rounds, got.Messages, want.rounds, want.messages)
	}
	for k, c := range got.Stats.ByKind {
		if c != want.byKind[uint8(k)] {
			t.Errorf("lockstep %s: ByKind[%d] = %d, pinned %d", cell, k, c, want.byKind[uint8(k)])
		}
	}
}

// TestEngineMatrixDeterminism is the cross-engine contract test: every
// algorithm, on a matrix of topologies, must report identical Rounds,
// Messages and per-kind counters (and the same MST) on the lockstep
// engine, the parallel engine, and the TCP cluster engine, and the
// lockstep figures must equal the pinned lockstepReference table.
func TestEngineMatrixDeterminism(t *testing.T) {
	type gen struct {
		name string
		g    *congestmst.Graph
	}
	random, err := congestmst.RandomConnected(96, 288, congestmst.GenOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	gens := []gen{
		{"path-48", congestmst.Path(48, congestmst.GenOptions{Seed: 1})},
		{"grid-6x8", congestmst.Grid(6, 8, congestmst.GenOptions{Seed: 2})},
		{"lollipop-8+24", congestmst.Lollipop(8, 24, congestmst.GenOptions{Seed: 3})},
		{"random-96", random},
	}
	algs := []congestmst.Algorithm{
		congestmst.Elkin, congestmst.ElkinFixedK, congestmst.GHS, congestmst.Pipeline,
	}
	for _, gn := range gens {
		for _, alg := range algs {
			cell := fmt.Sprintf("%s/%s", gn.name, alg)
			t.Run(cell, func(t *testing.T) {
				lock, err := congestmst.Run(gn.g, congestmst.Options{
					Algorithm: alg, Engine: congestmst.Lockstep,
				})
				if err != nil {
					t.Fatalf("lockstep: %v", err)
				}
				requireReference(t, cell, lock)
				for _, eng := range enginesUnderTest {
					opts := eng
					opts.Algorithm = alg
					got, err := congestmst.Run(gn.g, opts)
					if err != nil {
						t.Fatalf("%s: %v", opts.Engine, err)
					}
					requireSameRun(t, opts.Engine.String(), lock, got)
				}
			})
		}
	}
}

// reweighted rebuilds g with weights assigned by f over the edge
// index, for tie-heavy variants of the standard generators.
func reweighted(t *testing.T, g *congestmst.Graph, f func(i int) int64) *congestmst.Graph {
	t.Helper()
	b := congestmst.NewBuilder(g.N())
	for i, e := range g.Edges() {
		b.AddEdge(e.U, e.V, f(i))
	}
	out, err := b.Graph()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEngineMatrixTieBreaking pins deterministic tie-breaking across
// the engines: with every weight equal (or drawn from a 3-value
// palette), the MST is decided entirely by the lexicographic
// (w, u, v) order, and all engines must still agree bit-for-bit
// on the tree, the rounds, and the per-kind counters for every
// algorithm.
func TestEngineMatrixTieBreaking(t *testing.T) {
	random, err := congestmst.RandomConnected(96, 288, congestmst.GenOptions{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	type gen struct {
		name string
		g    *congestmst.Graph
	}
	gens := []gen{
		{"random-96-unit", reweighted(t, random, func(int) int64 { return 1 })},
		{"random-96-three-weights", reweighted(t, random, func(i int) int64 { return int64(i%3 + 1) })},
		{"grid-6x8-unit", congestmst.Grid(6, 8, congestmst.GenOptions{Seed: 22, Weights: congestmst.WeightsUnit})},
		{"ring-24-unit", congestmst.Ring(24, congestmst.GenOptions{Seed: 23, Weights: congestmst.WeightsUnit})},
	}
	algs := []congestmst.Algorithm{
		congestmst.Elkin, congestmst.ElkinFixedK, congestmst.GHS, congestmst.Pipeline,
	}
	for _, gn := range gens {
		for _, alg := range algs {
			t.Run(fmt.Sprintf("%s/%s", gn.name, alg), func(t *testing.T) {
				lock, err := congestmst.Run(gn.g, congestmst.Options{
					Algorithm: alg, Engine: congestmst.Lockstep,
				})
				if err != nil {
					t.Fatalf("lockstep: %v", err)
				}
				// The tie-broken tree must equal the unique Kruskal MST,
				// not merely some spanning tree of the right weight.
				want, err := gn.g.Kruskal()
				if err != nil {
					t.Fatal(err)
				}
				if len(lock.MSTEdges) != len(want) {
					t.Fatalf("lockstep MST has %d edges, Kruskal %d", len(lock.MSTEdges), len(want))
				}
				for i := range want {
					if lock.MSTEdges[i] != want[i] {
						t.Fatalf("lockstep MST edge %d = %d, Kruskal %d", i, lock.MSTEdges[i], want[i])
					}
				}
				for _, eng := range enginesUnderTest {
					opts := eng
					opts.Algorithm = alg
					got, err := congestmst.Run(gn.g, opts)
					if err != nil {
						t.Fatalf("%s: %v", opts.Engine, err)
					}
					requireSameRun(t, opts.Engine.String(), lock, got)
				}
			})
		}
	}
}

// TestDegenerateEdgeInputsRejected pins the other half of deterministic
// tie-breaking: self-loops and duplicate edges would make the
// lexicographic edge order ambiguous (two edges with identical
// (w, u, v) keys), so the builder — the single chokepoint every
// upload, generator and patch flows through — must reject them before
// any engine can see one.
func TestDegenerateEdgeInputsRejected(t *testing.T) {
	cases := []struct {
		name  string
		build func(b *congestmst.Builder)
		want  string
	}{
		{"self-loop", func(b *congestmst.Builder) {
			b.AddEdge(1, 1, 5)
		}, "self-loop"},
		{"duplicate same orientation", func(b *congestmst.Builder) {
			b.AddEdge(0, 1, 5)
			b.AddEdge(0, 1, 7)
		}, "duplicate edge"},
		{"duplicate reversed", func(b *congestmst.Builder) {
			b.AddEdge(0, 1, 5)
			b.AddEdge(1, 0, 5)
		}, "duplicate edge"},
		{"endpoint out of range", func(b *congestmst.Builder) {
			b.AddEdge(0, 9, 5)
		}, "out of range"},
		{"negative endpoint", func(b *congestmst.Builder) {
			b.AddEdge(-1, 2, 5)
		}, "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := congestmst.NewBuilder(4)
			b.AddEdge(2, 3, 1)
			tc.build(b)
			_, err := b.Graph()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Builder.Graph() err = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestEngineMatrixBandwidth repeats a slice of the matrix under
// CONGEST(b log n) bandwidth to cover the b > 1 accounting paths of
// every engine and every algorithm, so each fiber form's per-call send
// accounting is exercised with real multi-message rounds.
func TestEngineMatrixBandwidth(t *testing.T) {
	g, err := congestmst.RandomConnected(80, 240, congestmst.GenOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	algs := []congestmst.Algorithm{
		congestmst.Elkin, congestmst.ElkinFixedK, congestmst.GHS, congestmst.Pipeline,
	}
	for _, alg := range algs {
		for _, b := range []int{2, 4} {
			lock, err := congestmst.Run(g, congestmst.Options{
				Algorithm: alg, Bandwidth: b, Engine: congestmst.Lockstep,
			})
			if err != nil {
				t.Fatalf("lockstep %s b=%d: %v", alg, b, err)
			}
			for _, eng := range enginesUnderTest {
				opts := eng
				opts.Algorithm = alg
				opts.Bandwidth = b
				got, err := congestmst.Run(g, opts)
				if err != nil {
					t.Fatalf("%s %s b=%d: %v", opts.Engine, alg, b, err)
				}
				if *lock.Stats != *got.Stats {
					t.Errorf("%s b=%d: stats differ between lockstep and %s:\nlockstep: %+v\n%s: %+v",
						alg, b, opts.Engine, lock.Stats, opts.Engine, got.Stats)
				}
			}
		}
	}
}

// TestFiberEngineNoFallback pins that Engine: Fiber is Parallel: every
// stock algorithm reports Parallel's Stats under it, and an observer
// sees no phase event beyond the Elkin stage boundaries.
func TestFiberEngineNoFallback(t *testing.T) {
	g, err := congestmst.RandomConnected(64, 192, congestmst.GenOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	algs := []congestmst.Algorithm{
		congestmst.Elkin, congestmst.ElkinFixedK, congestmst.GHS, congestmst.Pipeline,
	}
	stages := map[string]bool{"bfs-build": true, "base-forest": true, "register": true, "boruvka": true}
	for _, alg := range algs {
		rec := &phaseNames{}
		fib, err := congestmst.Run(g, congestmst.Options{
			Algorithm: alg, Engine: congestmst.Fiber, Workers: 2, Observer: rec,
		})
		if err != nil {
			t.Fatalf("fiber %s: %v", alg, err)
		}
		par, err := congestmst.Run(g, congestmst.Options{
			Algorithm: alg, Engine: congestmst.Parallel, Workers: 2,
		})
		if err != nil {
			t.Fatalf("parallel %s: %v", alg, err)
		}
		if *fib.Stats != *par.Stats {
			t.Errorf("%s: Fiber stats differ from Parallel's", alg)
		}
		for _, name := range rec.names {
			if !stages[name] {
				t.Errorf("%s: unexpected phase event %q under Engine: Fiber", alg, name)
			}
		}
	}
}

// phaseNames records the names of the PhaseEvents a run emits.
type phaseNames struct {
	mu    sync.Mutex
	names []string
}

func (p *phaseNames) OnRound(congestmst.RoundEvent) {}

func (p *phaseNames) OnPhase(ev congestmst.PhaseEvent) {
	p.mu.Lock()
	p.names = append(p.names, ev.Name)
	p.mu.Unlock()
}

// TestEngineMatrixAsyncEquivalence is the acceptance test for the
// Async engine's deliberately weaker cross-engine contract: on every
// stock algorithm it must produce the same MST (edges and weight) as
// lockstep, message totals within the paper's bounds (pinned here as
// no worse than the synchronous total — the windowed path adds no
// protocol traffic of its own), and — the seeded-determinism
// regression gate — bit-identical Stats across repeated runs with the
// same AsyncSeed.
func TestEngineMatrixAsyncEquivalence(t *testing.T) {
	g, err := congestmst.RandomConnected(96, 288, congestmst.GenOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	algs := []congestmst.Algorithm{
		congestmst.Elkin, congestmst.ElkinFixedK, congestmst.GHS, congestmst.Pipeline,
	}
	for _, alg := range algs {
		t.Run(alg.String(), func(t *testing.T) {
			lock, err := congestmst.Run(g, congestmst.Options{
				Algorithm: alg, Engine: congestmst.Lockstep,
			})
			if err != nil {
				t.Fatalf("lockstep: %v", err)
			}
			run := func(seed uint64) *congestmst.Result {
				res, err := congestmst.Run(g, congestmst.Options{
					Algorithm: alg, Engine: congestmst.Async, Workers: 3, AsyncSeed: seed,
				})
				if err != nil {
					t.Fatalf("async seed=%d: %v", seed, err)
				}
				return res
			}
			for _, seed := range []uint64{0, 1, 12345} {
				got := run(seed)
				if got.Weight != lock.Weight {
					t.Errorf("seed %d: Weight %d, lockstep %d", seed, got.Weight, lock.Weight)
				}
				if len(got.MSTEdges) != len(lock.MSTEdges) {
					t.Fatalf("seed %d: MST sizes differ: %d vs %d", seed, len(got.MSTEdges), len(lock.MSTEdges))
				}
				for i := range lock.MSTEdges {
					if got.MSTEdges[i] != lock.MSTEdges[i] {
						t.Fatalf("seed %d: MST edge %d differs: %d vs %d",
							seed, i, got.MSTEdges[i], lock.MSTEdges[i])
					}
				}
				if got.Messages > lock.Messages {
					t.Errorf("seed %d: async sent %d messages, beyond the synchronous total %d",
						seed, got.Messages, lock.Messages)
				}
				// Same seed, same schedule, same Stats — run it again.
				if again := run(seed); *again.Stats != *got.Stats {
					t.Errorf("seed %d: stats differ across identical runs:\nfirst:  %+v\nsecond: %+v",
						seed, got.Stats, again.Stats)
				}
			}
		})
	}
}

// violator runs act at one vertex in round 0 and parks every other
// vertex until a delivery that never comes.
type violator struct {
	id  int
	act func(c congest.Context) congest.Park
}

func (f violator) Start(c congest.Context) congest.Park {
	if c.ID() == f.id {
		return f.act(c)
	}
	return congest.ParkAwait
}

func (violator) Resume(congest.Context, []congest.Inbound) congest.Park { return congest.ParkAwait }

// TestEngineMatrixContractViolations drives every engine directly, with
// fibers no stock algorithm would write: each row breaks the model at
// vertex 1 alone. Every engine must fail the run with one identical
// error text and still return stats.
func TestEngineMatrixContractViolations(t *testing.T) {
	g, err := congestmst.RandomConnected(64, 200, congestmst.GenOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	engines := []struct {
		name string
		run  func(factory func(int) congest.Fiber) (*congest.Stats, error)
	}{
		{"lockstep", func(f func(int) congest.Fiber) (*congest.Stats, error) {
			return congest.NewEngine(g, congest.Config{}).RunContext(ctx, f)
		}},
		{"parallel", func(f func(int) congest.Fiber) (*congest.Stats, error) {
			return parsim.NewEngine(g, parsim.Config{Workers: 3}).RunContext(ctx, f)
		}},
		{"async", func(f func(int) congest.Fiber) (*congest.Stats, error) {
			return parsim.NewEngine(g, parsim.Config{Workers: 3}).RunAsync(ctx, f, 1)
		}},
		{"cluster", func(f func(int) congest.Fiber) (*congest.Stats, error) {
			return nettrans.RunContext(ctx, g, nettrans.Config{Shards: 3}, f)
		}},
	}
	deg := g.Degree(1)
	msg := congest.Message{Kind: 1}
	rows := []struct {
		name string
		act  func(c congest.Context) congest.Park
		want string
	}{
		{"bandwidth", func(c congest.Context) congest.Park {
			c.Send(0, msg)
			c.Send(0, msg)
			return congest.ParkDone
		}, "congest: per-edge bandwidth exceeded: processor 1 port 0 round 0 (b=1)"},
		{"send-port-degree", func(c congest.Context) congest.Park {
			c.Send(c.Degree(), msg)
			return congest.ParkDone
		}, fmt.Sprintf("congest: processor 1 used invalid port %d", deg)},
		{"weight-port-degree", func(c congest.Context) congest.Park {
			c.Weight(c.Degree())
			return congest.ParkDone
		}, fmt.Sprintf("congest: processor 1 used invalid port %d", deg)},
		{"weight-port-negative", func(c congest.Context) congest.Park {
			c.Weight(-1)
			return congest.ParkDone
		}, "congest: processor 1 used invalid port -1"},
		{"stale-park", func(c congest.Context) congest.Park {
			return congest.ParkUntil(c.Round())
		}, "congest: processor 1 parked for round 0 at round 0"},
		{"panic", func(congest.Context) congest.Park {
			panic("boom")
		}, "congest: processor 1 panicked: boom"},
	}
	for _, row := range rows {
		for _, eng := range engines {
			t.Run(row.name+"/"+eng.name, func(t *testing.T) {
				stats, err := eng.run(func(int) congest.Fiber { return violator{id: 1, act: row.act} })
				if err == nil || err.Error() != row.want {
					t.Errorf("err = %v, want %q", err, row.want)
				}
				if row.name == "bandwidth" && !errors.Is(err, congest.ErrBandwidth) {
					t.Errorf("err = %v, want it to wrap congest.ErrBandwidth", err)
				}
				if stats == nil {
					t.Error("failed run returned nil stats")
				}
			})
		}
	}
}

// TestEngineMatrixLargeGraph is the engine matrix at a size where it
// matters: all four algorithms on a random graph with 1,250 vertices
// and m = 10^4 edges, with full Stats, weight and MST bit-identical to
// Lockstep on Parallel at 1, 2, 4 and 8 workers, on Async at 4 workers
// and on Cluster over real loopback TCP (6 sockets at any m). The
// matrix graphs above have at most 96 vertices, so only here do rounds
// get wider than the 512 active vertices at which Parallel fans a
// round out to its worker pool.
func TestEngineMatrixLargeGraph(t *testing.T) {
	if testing.Short() {
		t.Skip("large engine matrix skipped in short mode")
	}
	g, err := congestmst.RandomConnected(1250, 10_000, congestmst.GenOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	algs := []congestmst.Algorithm{
		congestmst.Elkin, congestmst.ElkinFixedK, congestmst.GHS, congestmst.Pipeline,
	}
	engines := []congestmst.Options{
		{Engine: congestmst.Parallel, Workers: 1},
		{Engine: congestmst.Parallel, Workers: 2},
		{Engine: congestmst.Parallel, Workers: 4},
		{Engine: congestmst.Parallel, Workers: 8},
		{Engine: congestmst.Async, Workers: 4},
		{Engine: congestmst.Cluster, Shards: 4},
	}
	for _, alg := range algs {
		t.Run(alg.String(), func(t *testing.T) {
			lock, err := congestmst.Run(g, congestmst.Options{
				Algorithm: alg, Engine: congestmst.Lockstep,
			})
			if err != nil {
				t.Fatalf("lockstep: %v", err)
			}
			for _, opts := range engines {
				opts.Algorithm = alg
				name := fmt.Sprintf("%s workers=%d shards=%d", opts.Engine, opts.Workers, opts.Shards)
				got, err := congestmst.Run(g, opts)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				requireSameRun(t, name, lock, got)
			}
		})
	}
}
