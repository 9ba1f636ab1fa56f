package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"congestmst"
	"congestmst/internal/graph"
)

// AsyncJSONPath is where E15 writes its machine-readable results when
// run at full scale (mstbench -full -e e15, or `make bench-async`).
const AsyncJSONPath = "BENCH_async.json"

// AsyncSeed is the delivery-scheduler seed every E15 async run uses,
// so the recorded numbers are reproducible.
const AsyncSeed = 15

// AsyncRow is one E15 measurement: one algorithm at one graph size,
// the barrier parallel engine and the windowed async engine side by
// side.
type AsyncRow struct {
	Algorithm    string  `json:"algorithm"`
	N            int     `json:"n"`
	M            int     `json:"m"`
	Workers      int     `json:"workers"`
	Seed         uint64  `json:"async_seed"`
	Rounds       int64   `json:"rounds"`
	Messages     int64   `json:"messages"`
	FiberSeconds float64 `json:"fiber_seconds"`
	AsyncSeconds float64 `json:"async_seconds"`
	Speedup      float64 `json:"speedup"` // fiber / async wall-clock
	StatsMatch   bool    `json:"stats_match"`
}

// timedAsyncRun is timedRun with the async scheduler seed threaded
// through (the shared helper predates Options.AsyncSeed).
func timedAsyncRun(g *graph.Graph, alg congestmst.Algorithm, engine congestmst.Engine, workers int, seed uint64) (*congestmst.Result, float64, error) {
	runtime.GC()
	start := time.Now()
	res, err := congestmst.RunContext(BaseContext, g, congestmst.Options{
		Algorithm: alg, Engine: engine, Workers: workers, AsyncSeed: seed,
		Verify: congestmst.VerifyOff,
	})
	elapsed := time.Since(start).Seconds()
	return res, elapsed, err
}

// E15AsyncRace races the windowed async engine against the barrier
// parallel engine it is built on: same fibers, same slab arenas, same
// worker pool — the only difference is the round barrier versus
// per-shard delivery queues closed by the quiescence detector. Both
// runs must agree on the MST, and because the windowed path preserves
// logical synchrony their full Stats must in fact agree bit for bit
// (a stronger check than the facade's cross-engine promise, asserted
// per row). At full scale the sweep reaches 10^6 vertices and the
// rows are written to BENCH_async.json.
func E15AsyncRace(full bool) (*Table, error) {
	ns := []int{4096, 16384}
	if full {
		ns = []int{100_000, 1_000_000}
	}
	workers := runtime.GOMAXPROCS(0)
	t := &Table{
		ID:    "e15",
		Title: fmt.Sprintf("async vs fiber: barrier-free delivery windows on sparse random graphs (m = 2n, workers = %d)", workers),
		Claim: "retiring the round barrier keeps stats bit-identical while shards execute and deliver concurrently",
		Columns: []string{"algorithm", "n", "m", "rounds", "msgs",
			"fiber s", "async s", "speedup", "stats equal"},
	}
	algs := []congestmst.Algorithm{congestmst.Elkin, congestmst.GHS}
	var rows []AsyncRow
	for _, n := range ns {
		g, err := graph.RandomConnected(n, 2*n, graph.GenOptions{Seed: uint64(151 + n)})
		if err != nil {
			return nil, err
		}
		g.CSR()
		for _, alg := range algs {
			fib, fibSec, err := timedAsyncRun(g, alg, congestmst.Fiber, 0, 0)
			if err != nil {
				return nil, fmt.Errorf("fiber %s n=%d: %w", alg, n, err)
			}
			asy, asySec, err := timedAsyncRun(g, alg, congestmst.Async, 0, AsyncSeed)
			if err != nil {
				return nil, fmt.Errorf("async %s n=%d: %w", alg, n, err)
			}
			if full {
				fmt.Fprintf(os.Stderr, "mstbench: e15 %s n=%d: fiber %.1fs async %.1fs\n",
					alg, n, fibSec, asySec)
			}
			match := *fib.Stats == *asy.Stats
			matchStr := "yes"
			if !match {
				matchStr = "VIOLATED"
			}
			rows = append(rows, AsyncRow{
				Algorithm: alg.String(), N: n, M: g.M(), Workers: workers,
				Seed: AsyncSeed, Rounds: asy.Rounds, Messages: asy.Messages,
				FiberSeconds: fibSec, AsyncSeconds: asySec,
				Speedup: fibSec / asySec, StatsMatch: match,
			})
			t.Rows = append(t.Rows, []string{
				alg.String(), di(n), di(g.M()), d(asy.Rounds), d(asy.Messages),
				fmt.Sprintf("%.3f", fibSec), fmt.Sprintf("%.3f", asySec),
				f2(fibSec / asySec), matchStr,
			})
		}
	}
	t.Notes = append(t.Notes,
		"verification is skipped in both runs so the measurements cover the engines, not Kruskal",
		fmt.Sprintf("async rows use scheduler seed %d; the windowed path preserves logical synchrony, so stats equal compares full Stats bit for bit", AsyncSeed),
		"speedup is fiber/async wall-clock; sub-window structure is visible through AsyncObserver delivery and quiesce events")
	if full {
		if err := writeAsyncJSON(rows); err != nil {
			return nil, err
		}
		t.Notes = append(t.Notes, "rows written to "+AsyncJSONPath)
	}
	return t, nil
}

var asyncJSONMu sync.Mutex

func writeAsyncJSON(rows []AsyncRow) error {
	asyncJSONMu.Lock()
	defer asyncJSONMu.Unlock()
	data, err := json.MarshalIndent(struct {
		Experiment string     `json:"experiment"`
		GoMaxProcs int        `json:"gomaxprocs"`
		NumCPU     int        `json:"num_cpu"`
		Rows       []AsyncRow `json:"rows"`
	}{"e15", runtime.GOMAXPROCS(0), runtime.NumCPU(), rows}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(AsyncJSONPath, append(data, '\n'), 0o644)
}
