package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"congestmst"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python's statistics.quantiles(xs, n=4).
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 2.2, 5.5}, [3]float64{2.2, 3.1, 5.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{0.5, 0.9, 0.7, 0.65}, [3]float64{0.5375, 0.675, 0.85}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending: tail must sort
		}
		return xs
	}
	for _, c := range []struct {
		n           int
		level, want float64
	}{
		{1000, 99, 990},
		{200, 95, 190}, // exactly 10 beyond p95
		{199, 90, 180}, // p95 would leave 9
		{100, 90, 90},
		{20, 50, 10},
		{15, 50, 8}, // no level has 10 beyond: the median
	} {
		v, level := tail(seq(c.n))
		if level != c.level || v != c.want {
			t.Errorf("tail of 1..%d = p%g %g, want p%g %g", c.n, level, v, c.level, c.want)
		}
	}
}

func TestJudgeVerdicts(t *testing.T) {
	base := []float64{1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	pairs := func(p, c []float64) [][2]float64 {
		var out [][2]float64
		for i := range p {
			out = append(out, [2]float64{p[i], c[i]})
		}
		return out
	}
	shuffled := []float64{1.01, 0.99, 1.02, 1.00, 1.00, 0.98, 1.02, 1.00, 0.99, 1.01}
	wide := []float64{1.0, 1.5, 0.6, 1.2, 0.8, 1.4, 0.7, 1.1, 0.9, 1.3}
	// Faster by 10 % in all runs but the last, which is slower than
	// every parent run: a gain only by the paired rule.
	mostlyFaster := append(scale(base[:9], 0.9), 1.05)
	for _, c := range []struct {
		name           string
		parent, change []float64
		paired         int // pairs passed to judge, from the first run on
		lowerBetter    bool
		want           string
	}{
		{"same values", base, shuffled, 10, true, verdictUnchanged},
		{"slower past the bound", base, scale(base, 1.2), 10, true, verdictWorse},
		{"slower within the bound", base, scale(base, 1.05), 10, true, verdictUnchanged},
		{"faster in every run", base, scale(base, 0.8), 10, true, verdictBetter},
		{"noise wider than the bound", base, wide, 10, true, verdictUnresolved},
		{"higher is better, dropped", base, scale(base, 0.8), 10, false, verdictWorse},
		{"higher is better, rose", base, scale(base, 1.2), 10, false, verdictBetter},
		{"faster in 9 of 10 pairs", base, mostlyFaster, 10, true, verdictBetter},
		{"faster in 9 of 9 pairs, too few", base, mostlyFaster, 9, true, verdictUnchanged},
		{"faster in the one pair", base, mostlyFaster, 1, true, verdictUnchanged},
	} {
		j := judge(c.parent, c.change, pairs(c.parent, c.change)[:c.paired], c.lowerBetter, 0.1)
		if j.verdict != c.want {
			t.Errorf("%s: verdict %s (delta %+.3f), want %s", c.name, j.verdict, j.delta, c.want)
		}
	}
}

// syntheticLedger has one untraced run of the workload per seed, with
// the run time of seed s at base·(1+s/1000).
func syntheticLedger(workload string, base float64, rounds int64, failed int) *ledger {
	l := &ledger{Schema: ledgerSchema}
	for s := uint64(1); s <= 10; s++ {
		l.Runs = append(l.Runs, record{
			Workload: workload, Seed: s, Seconds: 30,
			Result: Result{Correct: failed == 0, Attempted: 100, Failed: failed, Metrics: map[string]Metric{
				"run_s.fiber": {Value: base * (1 + float64(s)/1000), Unit: "s"},
			}},
			Rounds: rounds, Messages: 10 * rounds,
		})
	}
	return l
}

func TestCompareFailsOnCountsAndErrors(t *testing.T) {
	def := &benchDef{EndToEnd: []metricDef{{Name: "run_s.fiber", Unit: "s", Better: "lower", Bound: 0.1}}}
	def.Workloads = append(def.Workloads, struct {
		Name string `json:"name"`
	}{"w"})
	parent := syntheticLedger("w", 1, 500, 0)
	shorter := syntheticLedger("w", 1, 500, 0)
	for i := range shorter.Runs {
		shorter.Runs[i].Seconds = 15
	}
	for _, c := range []struct {
		name   string
		change *ledger
		fails  bool
		want   string
	}{
		{"identical", syntheticLedger("w", 1, 500, 0), false, verdictUnchanged},
		{"slower", syntheticLedger("w", 1.3, 500, 0), false, verdictWorse},
		{"rounds changed", syntheticLedger("w", 1, 501, 0), true, verdictUnchanged},
		{"errors appeared", syntheticLedger("w", 1, 500, 1), true, verdictUnchanged},
		{"run length changed", shorter, true, verdictUnchanged},
	} {
		cmp := compareLedgers(def, parent, c.change)
		if got := len(cmp.fails) > 0; got != c.fails {
			t.Errorf("%s: failures %v, want failing=%t", c.name, cmp.fails, c.fails)
		}
		if len(cmp.rows) != 1 || cmp.rows[0].j.verdict != c.want {
			t.Errorf("%s: rows %+v, want one %s", c.name, cmp.rows, c.want)
		}
	}
	if cmp := compareLedgers(def, parent, &ledger{Schema: ledgerSchema}); len(cmp.fails) == 0 {
		t.Error("a ledger without the workload's runs compared without failure")
	}
}

func TestLedgerRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ledger.json")
	want := syntheticLedger("w", 1, 500, 0)
	for _, r := range want.Runs[:3] {
		r.Samples = map[string]int{"run_s.fiber": 5}
		r.Host = hostInfo()
		if err := appendLedger(path, r); err != nil {
			t.Fatal(err)
		}
	}
	got, err := loadLedger(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != 3 {
		t.Fatalf("%d runs read back, want 3", len(got.Runs))
	}
	for i, r := range got.Runs {
		w := want.Runs[i]
		w.Samples, w.Host = r.Samples, r.Host
		if !reflect.DeepEqual(r, w) {
			t.Errorf("run %d read back as %+v, want %+v", i, r, w)
		}
		if r.Host.GoVersion == "" || r.Host.NumCPU == 0 {
			t.Errorf("run %d: host not recorded: %+v", i, r.Host)
		}
	}
	other := want.Runs[3]
	other.Set = "b"
	if err := appendLedger(path, other); err != nil {
		t.Fatal(err)
	}
	if l, err := loadLedgerSet(path + "#b"); err != nil || len(l.Runs) != 1 || l.Runs[0].Seed != other.Seed {
		t.Errorf("set b read back as %+v, %v; want the one run of seed %d", l, err, other.Seed)
	}
	if _, err := loadLedgerSet(path + "#c"); err == nil {
		t.Error("an absent set was read without error")
	}
	if err := os.WriteFile(path, []byte(`{"schema":"other","runs":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadLedger(path); err == nil {
		t.Error("a ledger of another schema was accepted")
	}
}

// Toy scales of the three workloads for the smoke test.
var (
	toyRandom   = graphScale{spec: congestmst.GraphSpec{Type: "random", N: 256, M: 1024}, graphs: 2, minSets: 1}
	toyLollipop = graphScale{spec: congestmst.GraphSpec{Type: "lollipop", Clique: 16, Tail: 64}, graphs: 2, minSets: 1}
	toyServe    = serveScale{
		spec: congestmst.GraphSpec{Type: "random", N: 64, M: 256},
		rate: 4, poll: 2 * time.Millisecond, hitLag: 250 * time.Millisecond, probeSets: 2, memRounds: 1,
	}
)

// TestSmokeAllWorkloads runs every workload at toy scale, untraced and
// traced, and checks the output against BENCHMARK.json: the untraced
// pass reports exactly the end-to-end metrics and the traced pass
// exactly the per-layer metrics, with the declared units; every run is
// correct; the traced pass writes its spans and sees the same rounds
// and messages as the untraced one.
func TestSmokeAllWorkloads(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range def.Workloads {
		declared = append(declared, w.Name)
	}
	if !reflect.DeepEqual(declared, workloadNames()) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the program runs %v", declared, workloadNames())
	}
	toys := map[string]func(context.Context, runOpts) (*report, error){
		"random-sparse":  func(ctx context.Context, o runOpts) (*report, error) { return runGraph(ctx, o, toyRandom) },
		"lollipop-highd": func(ctx context.Context, o runOpts) (*report, error) { return runGraph(ctx, o, toyLollipop) },
		"serve-mixed":    func(ctx context.Context, o runOpts) (*report, error) { return runServe(ctx, o, toyServe) },
	}
	dir := t.TempDir()
	for _, name := range workloadNames() {
		var counts [2][2]int64
		for trace, metrics := range [][]metricDef{def.EndToEnd, def.PerLayer} {
			o := runOpts{seed: 7, seconds: 200 * time.Millisecond, traced: trace == 1}
			if name == "serve-mixed" {
				o.seconds = 2 * time.Second
			}
			r, err := measure(toys[name], name, o, dir)
			if err != nil {
				t.Fatalf("%s trace=%d: %v", name, trace, err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s trace=%d: correct=%t attempted=%d failed=%d: %v", name, trace, r.Correct, r.Attempted, r.Failed, r.Errors)
			}
			var want, got []string
			for _, m := range metrics {
				want = append(want, m.Name)
				if v, ok := r.Metrics[m.Name]; ok && v.Unit != m.Unit {
					t.Errorf("%s: %s reported in %s, BENCHMARK.json says %s", name, m.Name, v.Unit, m.Unit)
				}
			}
			for k := range r.Metrics {
				got = append(got, k)
			}
			sort.Strings(want)
			sort.Strings(got)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%d: reports %v,\nBENCHMARK.json lists %v", name, trace, got, want)
			}
			counts[trace] = [2]int64{r.Rounds, r.Messages}
		}
		if counts[0] != counts[1] || counts[0][0] == 0 {
			t.Errorf("%s: untraced rounds/messages %v, traced %v", name, counts[0], counts[1])
		}
		if _, err := os.Stat(filepath.Join(dir, name+"-seed7.spans.ndjson")); err != nil {
			t.Errorf("%s: traced pass wrote no spans: %v", name, err)
		}
	}
}
