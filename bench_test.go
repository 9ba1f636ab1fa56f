// Benchmarks: one per reproduction experiment (see internal/bench and
// the README's experiment sections), each regenerating its table at
// the quick scale, plus micro-benchmarks of the simulator and the
// sequential ground truth. Run the full-scale tables with
// `go run ./cmd/mstbench -full`.
package congestmst_test

import (
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

// BenchmarkE11ParsimScaling races the parallel engine against the
// lockstep engine at the quick scale.
func BenchmarkE11ParsimScaling(b *testing.B) { benchExperiment(b, "e11") }

// BenchmarkE8Convergence regenerates the CV/Boruvka constants table.
func BenchmarkE8Convergence(b *testing.B) { benchExperiment(b, "e8") }

// BenchmarkE9GHSAdversary regenerates the GHS time-separation table.
func BenchmarkE9GHSAdversary(b *testing.B) { benchExperiment(b, "e9") }

// BenchmarkElkinMST measures one full run of the paper's algorithm on
// a mid-size low-diameter graph, reporting CONGEST metrics per run.
func BenchmarkElkinMST(b *testing.B) {
	g, err := congestmst.RandomConnected(512, 2048, congestmst.GenOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var rounds, msgs int64
	for i := 0; i < b.N; i++ {
		res, err := congestmst.Run(g, congestmst.Options{Verify: congestmst.VerifyOff})
		if err != nil {
			b.Fatal(err)
		}
		rounds, msgs = res.Rounds, res.Messages
	}
	b.ReportMetric(float64(rounds), "rounds")
	b.ReportMetric(float64(msgs), "messages")
}

// BenchmarkGHSMST measures one full GHS'83 run on the same graph.
func BenchmarkGHSMST(b *testing.B) {
	g, err := congestmst.RandomConnected(512, 2048, congestmst.GenOptions{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
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

// BenchmarkE12ClusterTransport races the TCP cluster engine against
// the lockstep engine at the quick scale.
func BenchmarkE12ClusterTransport(b *testing.B) { benchExperiment(b, "e12") }
