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

// ParsimJSONPath is where E11 writes its machine-readable results when
// run at full scale (mstbench -full -e e11).
const ParsimJSONPath = "BENCH_parsim.json"

// ParsimRow is one machine-readable E11 measurement.
type ParsimRow struct {
	N               int     `json:"n"`
	M               int     `json:"m"`
	Workers         int     `json:"workers"`
	Rounds          int64   `json:"rounds"`
	Messages        int64   `json:"messages"`
	LockstepSeconds float64 `json:"lockstep_seconds"`
	ParallelSeconds float64 `json:"parallel_seconds"`
	Speedup         float64 `json:"speedup"`
	LockstepPeakRSS uint64  `json:"lockstep_peak_heap_bytes"`
	ParallelPeakRSS uint64  `json:"parallel_peak_heap_bytes"`
	StatsMatch      bool    `json:"stats_match"`
}

// heapWatcher samples runtime.MemStats.HeapInuse in the background and
// remembers the high-water mark: a portable stand-in for peak RSS that
// attributes memory to the run in progress (unlike /proc VmHWM, which
// is monotonic over the whole process).
type heapWatcher struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func watchHeap() *heapWatcher {
	w := &heapWatcher{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		var ms runtime.MemStats
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapInuse > w.peak {
				w.peak = ms.HeapInuse
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

func (w *heapWatcher) Peak() uint64 {
	close(w.stop)
	<-w.done
	return w.peak
}

// timedElkinRun executes one Elkin run on the given engine, reporting
// the result, elapsed seconds and peak sampled heap. (E14 uses the
// generalised timedRun in fiber.go, which also samples StackInuse.)
func timedElkinRun(g *graph.Graph, engine congestmst.Engine) (*congestmst.Result, float64, uint64, error) {
	runtime.GC()
	w := watchHeap()
	start := time.Now()
	res, err := congestmst.RunContext(BaseContext, g, congestmst.Options{Engine: engine, Verify: congestmst.VerifyOff})
	elapsed := time.Since(start).Seconds()
	peak := w.Peak()
	return res, elapsed, peak, err
}

// E11ParsimScaling sweeps n on sparse random graphs and race-runs the
// lockstep engine of internal/congest against the parallel
// event-driven engine of internal/parsim on the paper's algorithm:
// identical Rounds/Messages (asserted per row), wall-clock speedup and
// peak heap side by side. At full scale the sweep reaches 10^6
// vertices — the regime the parallel engine exists for — and writes
// the rows to BENCH_parsim.json for downstream tooling.
func E11ParsimScaling(full bool) (*Table, error) {
	ns := []int{1024, 2048}
	if full {
		ns = []int{65536, 262144, 1048576}
	}
	workers := runtime.GOMAXPROCS(0)
	t := &Table{
		ID:    "e11",
		Title: fmt.Sprintf("engine scaling on sparse random graphs (m = 3n, workers = %d)", workers),
		Claim: "parsim reports bit-identical Rounds/Messages/ByKind and scales Elkin runs to 10^6 vertices",
		Columns: []string{"n", "m", "rounds", "msgs", "lockstep s", "parallel s",
			"speedup", "lockstep peak MB", "parallel peak MB", "stats equal"},
	}
	var rows []ParsimRow
	for _, n := range ns {
		g, err := graph.RandomConnected(n, 3*n, graph.GenOptions{Seed: uint64(117 + n)})
		if err != nil {
			return nil, err
		}
		// Warm the graph's lazily-built CSR outside the timed windows:
		// it is shared by both engines and would otherwise be charged
		// to whichever run goes first.
		g.CSR()
		par, parSec, parPeak, err := timedElkinRun(g, congestmst.Parallel)
		if err != nil {
			return nil, fmt.Errorf("parallel n=%d: %w", n, err)
		}
		lock, lockSec, lockPeak, err := timedElkinRun(g, congestmst.Lockstep)
		if err != nil {
			return nil, fmt.Errorf("lockstep n=%d: %w", n, err)
		}
		match := lock.Rounds == par.Rounds && lock.Messages == par.Messages &&
			*lock.Stats == *par.Stats
		matchStr := "yes"
		if !match {
			matchStr = "VIOLATED"
		}
		row := ParsimRow{
			N: n, M: g.M(), Workers: workers,
			Rounds: lock.Rounds, Messages: lock.Messages,
			LockstepSeconds: lockSec, ParallelSeconds: parSec,
			Speedup:         lockSec / parSec,
			LockstepPeakRSS: lockPeak, ParallelPeakRSS: parPeak,
			StatsMatch: match,
		}
		rows = append(rows, row)
		mb := func(b uint64) string { return fmt.Sprintf("%.1f", float64(b)/(1<<20)) }
		t.Rows = append(t.Rows, []string{
			di(n), di(g.M()), d(lock.Rounds), d(lock.Messages),
			fmt.Sprintf("%.3f", lockSec), fmt.Sprintf("%.3f", parSec),
			f2(row.Speedup), mb(lockPeak), mb(parPeak), matchStr,
		})
	}
	t.Notes = append(t.Notes,
		"verification is skipped in both runs so the timings measure the engines, not Kruskal",
		"speedup is lockstep/parallel wall-clock; it needs multiple cores (GOMAXPROCS >= 8 for the 4x headline)",
		"peak MB is the sampled HeapInuse high-water mark during the run")
	if full {
		if err := writeParsimJSON(rows); err != nil {
			return nil, err
		}
		t.Notes = append(t.Notes, "rows written to "+ParsimJSONPath)
	}
	return t, nil
}

var parsimJSONMu sync.Mutex

func writeParsimJSON(rows []ParsimRow) error {
	parsimJSONMu.Lock()
	defer parsimJSONMu.Unlock()
	data, err := json.MarshalIndent(struct {
		Experiment string      `json:"experiment"`
		GoMaxProcs int         `json:"gomaxprocs"`
		Rows       []ParsimRow `json:"rows"`
	}{"e11", runtime.GOMAXPROCS(0), rows}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(ParsimJSONPath, append(data, '\n'), 0o644)
}
