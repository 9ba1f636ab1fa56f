package congestmst_test

import (
	"testing"

	"congestmst"
)

// TestFiberEngineLargeGraphSmoke is the scaling smoke for the parallel
// engine under its Fiber name: each algorithm on a 10^5-vertex sparse
// random graph. The computed tree is pinned to the Kruskal forest
// (the auto-verifier skips ground truth above 2^18 edges, so the test
// recomputes it explicitly).
func TestFiberEngineLargeGraphSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("10^5-vertex fiber smoke skipped in short mode")
	}
	const n = 100_000
	g, err := congestmst.RandomConnected(n, 3*n, congestmst.GenOptions{Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	want := g.MSF()
	wantWeight := g.TotalWeight(want)
	algs := []congestmst.Algorithm{
		congestmst.Elkin, congestmst.ElkinFixedK, congestmst.GHS, congestmst.Pipeline,
	}
	for _, alg := range algs {
		t.Run(alg.String(), func(t *testing.T) {
			res, err := congestmst.Run(g, congestmst.Options{
				Algorithm: alg,
				Engine:    congestmst.Fiber,
			})
			if err != nil {
				t.Fatalf("fiber %s: %v", alg, err)
			}
			if len(res.MSTEdges) != len(want) {
				t.Fatalf("MST has %d edges, Kruskal %d", len(res.MSTEdges), len(want))
			}
			for i := range want {
				if res.MSTEdges[i] != want[i] {
					t.Fatalf("MST edge %d = %d, Kruskal %d", i, res.MSTEdges[i], want[i])
				}
			}
			if res.Weight != wantWeight {
				t.Fatalf("weight %d, Kruskal %d", res.Weight, wantWeight)
			}
		})
	}
}
