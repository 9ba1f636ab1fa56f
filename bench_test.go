// Benchmarks: one per reproduction experiment (see internal/bench and
// the README's experiment sections), each regenerating its table at
// the quick scale, plus micro-benchmarks of the simulator and the
// sequential ground truth. Run the full-scale tables with
// `go run ./cmd/mstbench -full`.
package congestmst_test

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"testing"

	"congestmst"
	"congestmst/internal/bench"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	exp, ok := bench.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	for i := 0; i < b.N; i++ {
		if _, err := exp.Run(false); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

// BenchmarkE1BaseForest regenerates the Theorem 4.3 sweep (base-forest
// rounds/messages vs k).
func BenchmarkE1BaseForest(b *testing.B) { benchExperiment(b, "e1") }

// BenchmarkE2Invariants regenerates the Lemma 4.1/4.2 per-phase table.
func BenchmarkE2Invariants(b *testing.B) { benchExperiment(b, "e2") }

// BenchmarkE3LowDiameter regenerates the Theorem 3.1 low-diameter
// sweep with the Equation (1) decomposition.
func BenchmarkE3LowDiameter(b *testing.B) { benchExperiment(b, "e3") }

// BenchmarkE4HighDiameter regenerates the k = D regime table.
func BenchmarkE4HighDiameter(b *testing.B) { benchExperiment(b, "e4") }

// BenchmarkE5Ablation regenerates the Section 1.2 pinned-k comparison.
func BenchmarkE5Ablation(b *testing.B) { benchExperiment(b, "e5") }

// BenchmarkE6Bandwidth regenerates the Theorem 3.2 bandwidth sweep.
func BenchmarkE6Bandwidth(b *testing.B) { benchExperiment(b, "e6") }

// BenchmarkE7Baselines regenerates the Section 1.1 comparison table.
func BenchmarkE7Baselines(b *testing.B) { benchExperiment(b, "e7") }

// BenchmarkE8Convergence regenerates the CV/Boruvka constants table.
func BenchmarkE8Convergence(b *testing.B) { benchExperiment(b, "e8") }

// BenchmarkE9GHSAdversary regenerates the GHS time-separation table.
func BenchmarkE9GHSAdversary(b *testing.B) { benchExperiment(b, "e9") }

// benchElkin measures full Elkin runs on g under opts, reporting
// CONGEST metrics and allocations per run.
func benchElkin(b *testing.B, g *congestmst.Graph, opts congestmst.Options) {
	b.Helper()
	b.ReportAllocs()
	opts.Verify = congestmst.VerifyOff
	var rounds, msgs int64
	for i := 0; i < b.N; i++ {
		res, err := congestmst.Run(g, opts)
		if err != nil {
			b.Fatal(err)
		}
		rounds, msgs = res.Rounds, res.Messages
	}
	b.ReportMetric(float64(rounds), "rounds")
	b.ReportMetric(float64(msgs), "messages")
}

// BenchmarkElkinMST measures one full run of the paper's algorithm on
// a mid-size low-diameter graph: the message-bound case.
func BenchmarkElkinMST(b *testing.B) {
	g, err := congestmst.RandomConnected(512, 2048, congestmst.GenOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	benchElkin(b, g, congestmst.Options{})
}

// BenchmarkElkinMSTEngines is BenchmarkElkinMST on each engine besides
// Lockstep, so every engine's executor has an exact allocation count,
// plus the Cluster engine on BenchmarkElkinMSTLollipop's round-bound
// graph, where it reports the synchronizer batches it wrote per run.
func BenchmarkElkinMSTEngines(b *testing.B) {
	g, err := congestmst.RandomConnected(512, 2048, congestmst.GenOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, opts := range []congestmst.Options{
		{Engine: congestmst.Parallel, Workers: 2},
		{Engine: congestmst.Async, AsyncSeed: 1},
		{Engine: congestmst.Cluster, Shards: 4},
	} {
		b.Run(opts.Engine.String(), func(b *testing.B) { benchElkin(b, g, opts) })
	}
	b.Run("cluster-lollipop", func(b *testing.B) {
		nc := &batchCounter{}
		benchElkin(b, congestmst.Lollipop(32, 512, congestmst.GenOptions{Seed: 1}),
			congestmst.Options{Engine: congestmst.Cluster, Shards: 4, Observer: nc})
		b.ReportMetric(float64(nc.batches), "batches/op")
	})
}

// batchCounter is a NetObserver that keeps the batch count of the last
// run's transport account.
type batchCounter struct{ batches int64 }

func (o *batchCounter) OnRound(congestmst.RoundEvent) {}
func (o *batchCounter) OnPhase(congestmst.PhaseEvent) {}
func (o *batchCounter) OnNet(ns congestmst.NetSample) { o.batches = ns.Batches }

// BenchmarkElkinMSTLollipop is the round-bound twin of
// BenchmarkElkinMST: Lollipop(32, 512) takes about 160k rounds at
// under one message each, so parks, the calendar and fixed-length
// windows dominate its time and allocations.
func BenchmarkElkinMSTLollipop(b *testing.B) {
	benchElkin(b, congestmst.Lollipop(32, 512, congestmst.GenOptions{Seed: 1}), congestmst.Options{})
}

// peakMemObserver records the largest sum, over the round events of a
// run, of the three runtime/metrics classes perfbench's peak_mem_mb
// reads: heap objects, unused heap and goroutine stacks. Sampling in
// OnRound needs no sampler goroutine of its own.
type peakMemObserver struct {
	mu      sync.Mutex
	samples []metrics.Sample
	peak    uint64
}

func newPeakMemObserver() *peakMemObserver {
	return &peakMemObserver{samples: []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
		{Name: "/memory/classes/heap/stacks:bytes"},
	}}
}

func (o *peakMemObserver) OnRound(congestmst.RoundEvent) {
	o.mu.Lock()
	defer o.mu.Unlock()
	metrics.Read(o.samples)
	var sum uint64
	for _, s := range o.samples {
		sum += s.Value.Uint64()
	}
	o.peak = max(o.peak, sum)
}

func (o *peakMemObserver) OnPhase(congestmst.PhaseEvent) {}

// BenchmarkElkinParallelMillion runs the paper's algorithm once on the
// Parallel engine over a sparse random graph with 10^6 vertices and
// 2·10^6 edges, the scale the Parallel engine exists for, and reports
// the peak memory of the run next to its rounds and messages. It is
// skipped under -short and is not part of `make bench-layers`; run it
// with
//
//	go test -run '^$' -bench ElkinParallelMillion -benchtime 1x .
//
// On a 2-vCPU Intel Xeon VM (Go 1.24.0, GOMAXPROCS 2) one run took
// 209 s for 320,895 rounds and 276,206,424 messages, with a peak of
// 4,657 MiB.
func BenchmarkElkinParallelMillion(b *testing.B) {
	if testing.Short() {
		b.Skip("10^6-vertex run skipped in short mode")
	}
	g, err := congestmst.RandomConnected(1_000_000, 2_000_000, congestmst.GenOptions{Seed: 141})
	if err != nil {
		b.Fatal(err)
	}
	g.CSR()
	peak := newPeakMemObserver()
	opts := congestmst.Options{Engine: congestmst.Parallel, Verify: congestmst.VerifyOff, Observer: peak}
	runtime.GC()
	b.ResetTimer()
	var rounds, msgs int64
	for i := 0; i < b.N; i++ {
		res, err := congestmst.Run(g, opts)
		if err != nil {
			b.Fatal(err)
		}
		rounds, msgs = res.Rounds, res.Messages
	}
	b.ReportMetric(float64(rounds), "rounds")
	b.ReportMetric(float64(msgs), "messages")
	b.ReportMetric(float64(peak.peak)/(1<<20), "peak-heap-MiB")
}

// BenchmarkGHSMST measures one full GHS'83 run on the same graph.
func BenchmarkGHSMST(b *testing.B) {
	g, err := congestmst.RandomConnected(512, 2048, congestmst.GenOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var rounds, msgs int64
	for i := 0; i < b.N; i++ {
		res, err := congestmst.Run(g, congestmst.Options{Algorithm: congestmst.GHS, Verify: congestmst.VerifyOff})
		if err != nil {
			b.Fatal(err)
		}
		rounds, msgs = res.Rounds, res.Messages
	}
	b.ReportMetric(float64(rounds), "rounds")
	b.ReportMetric(float64(msgs), "messages")
}

// BenchmarkPipelineMST measures one full GKP'98 run on the same graph.
func BenchmarkPipelineMST(b *testing.B) {
	g, err := congestmst.RandomConnected(512, 2048, congestmst.GenOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var rounds, msgs int64
	for i := 0; i < b.N; i++ {
		res, err := congestmst.Run(g, congestmst.Options{Algorithm: congestmst.Pipeline, Verify: congestmst.VerifyOff})
		if err != nil {
			b.Fatal(err)
		}
		rounds, msgs = res.Rounds, res.Messages
	}
	b.ReportMetric(float64(rounds), "rounds")
	b.ReportMetric(float64(msgs), "messages")
}

// BenchmarkKruskal measures the sequential ground truth used by the
// verifier.
func BenchmarkKruskal(b *testing.B) {
	g, err := congestmst.RandomConnected(4096, 16384, congestmst.GenOptions{Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Kruskal(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10PipelineMessages regenerates the Pipeline message
// separation table.
func BenchmarkE10PipelineMessages(b *testing.B) { benchExperiment(b, "e10") }
