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

// FiberJSONPath is where E14 writes its machine-readable results when
// run at full scale (mstbench -full -e e14, or `make bench-fiber`).
const FiberJSONPath = "BENCH_fiber.json"

// WorkerSweep is the fiber-engine worker counts E14 sweeps
// (mstbench -workers overrides it).
var WorkerSweep = []int{1, 2, 4, 8}

// SweepRow is one E14 measurement: one algorithm at one worker count.
// StatsMatch compares the run against the algorithm's first (fewest
// workers) row.
type SweepRow struct {
	Algorithm  string  `json:"algorithm"`
	N          int     `json:"n"`
	M          int     `json:"m"`
	Workers    int     `json:"workers"`
	Rounds     int64   `json:"rounds"`
	Messages   int64   `json:"messages"`
	Seconds    float64 `json:"seconds"`
	PeakBytes  uint64  `json:"peak_mem_bytes"`
	StatsMatch bool    `json:"stats_match"`
}

// memWatcher samples HeapInuse+StackInuse in the background and
// remembers the high-water mark: a portable stand-in for peak RSS
// that attributes memory to the run in progress (unlike /proc VmHWM,
// which is monotonic over the whole process). StackInuse is included
// because goroutine stacks live outside the heap.
type memWatcher struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func watchMem() *memWatcher {
	w := &memWatcher{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		var ms runtime.MemStats
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			runtime.ReadMemStats(&ms)
			if mem := ms.HeapInuse + ms.StackInuse; mem > w.peak {
				w.peak = mem
			}
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

func (w *memWatcher) Peak() uint64 {
	close(w.stop)
	<-w.done
	return w.peak
}

// timedRun executes one run of alg on the given engine, reporting the
// result, elapsed seconds and peak sampled memory. workers <= 0 means
// the engine default (GOMAXPROCS).
func timedRun(g *graph.Graph, alg congestmst.Algorithm, engine congestmst.Engine, workers int) (*congestmst.Result, float64, uint64, error) {
	runtime.GC()
	w := watchMem()
	start := time.Now()
	res, err := congestmst.RunContext(BaseContext, g, congestmst.Options{
		Algorithm: alg, Engine: engine, Workers: workers, Verify: congestmst.VerifyOff,
	})
	elapsed := time.Since(start).Seconds()
	peak := w.Peak()
	return res, elapsed, peak, err
}

// E14FiberSweep is the worker sweep of the parallel engine: every
// stock algorithm (Elkin, ElkinFixedK, GHS, Pipeline) on one sparse
// random graph across WorkerSweep worker counts. Every row must report
// Rounds/Messages/ByKind bit-identical to the algorithm's first row. At
// full scale the graph has 10^6 vertices and the rows are written to
// BENCH_fiber.json.
func E14FiberSweep(full bool) (*Table, error) {
	n := 4096
	if full {
		n = 1_000_000
	}
	g, err := graph.RandomConnected(n, 2*n, graph.GenOptions{Seed: uint64(141)})
	if err != nil {
		return nil, err
	}
	g.CSR()
	t := &Table{
		ID:    "e14",
		Title: fmt.Sprintf("worker sweep: all four algorithms on a sparse random graph (n = %d, m = %d)", n, g.M()),
		Claim: "every algorithm reports identical stats at every worker count",
		Columns: []string{"algorithm", "workers", "rounds", "msgs",
			"seconds", "peak MB", "stats equal"},
	}
	algs := []congestmst.Algorithm{
		congestmst.Elkin, congestmst.ElkinFixedK, congestmst.GHS, congestmst.Pipeline,
	}
	mb := func(b uint64) string { return fmt.Sprintf("%.1f", float64(b)/(1<<20)) }
	var rows []SweepRow
	for _, alg := range algs {
		var base *congestmst.Result
		for _, w := range WorkerSweep {
			res, sec, peak, err := timedRun(g, alg, congestmst.Fiber, w)
			if err != nil {
				return nil, fmt.Errorf("%s workers=%d: %w", alg, w, err)
			}
			if full {
				// At full scale the sweep runs for hours on one core; a
				// progress line per run keeps a watching terminal honest
				// about liveness.
				fmt.Fprintf(os.Stderr, "mstbench: e14 %s workers=%d: %.1fs peak=%sMB\n", alg, w, sec, mb(peak))
			}
			matchStr := "baseline"
			match := true
			if base == nil {
				base = res
			} else {
				match = *base.Stats == *res.Stats
				matchStr = "yes"
				if !match {
					matchStr = "VIOLATED"
				}
			}
			rows = append(rows, SweepRow{
				Algorithm: alg.String(), N: n, M: g.M(),
				Workers: w, Rounds: res.Rounds, Messages: res.Messages,
				Seconds: sec, PeakBytes: peak, StatsMatch: match,
			})
			t.Rows = append(t.Rows, []string{
				alg.String(), di(w), d(res.Rounds), d(res.Messages),
				fmt.Sprintf("%.3f", sec), mb(peak), matchStr,
			})
		}
	}
	t.Notes = append(t.Notes,
		"verification is skipped so the measurements cover the engine, not Kruskal",
		"stats equal compares a row's full Stats against the algorithm's first row",
		"peak MB is the sampled HeapInuse+StackInuse high-water mark during the run",
		fmt.Sprintf("worker sweep: %v (host has %d CPU(s) — workers beyond that add scheduling, not parallelism)", WorkerSweep, runtime.NumCPU()))
	if full {
		if err := writeFiberJSON(rows); err != nil {
			return nil, err
		}
		t.Notes = append(t.Notes, "rows written to "+FiberJSONPath)
	}
	return t, nil
}

var fiberJSONMu sync.Mutex

func writeFiberJSON(rows []SweepRow) error {
	fiberJSONMu.Lock()
	defer fiberJSONMu.Unlock()
	data, err := json.MarshalIndent(struct {
		Experiment string     `json:"experiment"`
		GoMaxProcs int        `json:"gomaxprocs"`
		NumCPU     int        `json:"num_cpu"`
		Rows       []SweepRow `json:"rows"`
	}{"e14", runtime.GOMAXPROCS(0), runtime.NumCPU(), rows}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(FiberJSONPath, append(data, '\n'), 0o644)
}
