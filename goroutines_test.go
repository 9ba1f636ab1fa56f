package congestmst_test

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"congestmst"
)

// goroutinePeak is an Observer that samples runtime.NumGoroutine() at
// every round event and keeps the maximum.
type goroutinePeak struct {
	mu   sync.Mutex
	peak int
}

func (g *goroutinePeak) OnRound(congestmst.RoundEvent) {
	n := runtime.NumGoroutine()
	g.mu.Lock()
	g.peak = max(g.peak, n)
	g.mu.Unlock()
}

func (g *goroutinePeak) OnPhase(congestmst.PhaseEvent) {}

// settledGoroutines waits for goroutines left over from earlier runs
// to exit and returns the count once it stops falling.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		time.Sleep(5 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m >= n {
			return m
		}
		n = m
	}
	return n
}

// TestNoPerVertexGoroutines pins that vertex programs run inline on
// every engine: the goroutine count sampled during a run is the same
// at 500 and at 5,000 vertices, so nothing scales with n.
func TestNoPerVertexGoroutines(t *testing.T) {
	engines := []congestmst.Options{
		{Engine: congestmst.Lockstep},
		{Engine: congestmst.Parallel, Workers: 2},
		{Engine: congestmst.Cluster, Shards: 3},
	}
	graphs := map[int]*congestmst.Graph{}
	for _, n := range []int{500, 5000} {
		g, err := congestmst.RandomConnected(n, 3*n, congestmst.GenOptions{Seed: 17})
		if err != nil {
			t.Fatal(err)
		}
		graphs[n] = g
	}
	for _, opts := range engines {
		t.Run(opts.Engine.String(), func(t *testing.T) {
			var extra [2]int
			for i, n := range []int{500, 5000} {
				rec := &goroutinePeak{}
				opts := opts
				opts.Algorithm = congestmst.GHS
				opts.Observer = rec
				base := settledGoroutines()
				if _, err := congestmst.Run(graphs[n], opts); err != nil {
					t.Fatalf("n=%d: %v", n, err)
				}
				extra[i] = rec.peak - base
			}
			if extra[0] != extra[1] {
				t.Errorf("goroutines above baseline during a run: %d at n=500, %d at n=5000", extra[0], extra[1])
			}
			t.Logf("goroutines above baseline during a run: %d", extra[1])
		})
	}
}
