// Command perfbench is the repository benchmark: seeded workloads that
// run the MST library and the mstserved job service end to end, check
// every output, and print wall time, memory and latency figures.
//
//	perfbench --workload random-sparse --seed 1 --seconds 30 --trace 0
//
// prints one line per metric (name, value, unit, sample count) and, as
// its last line, one JSON object with the keys correct, attempted,
// failed and metrics. --trace 1 runs the traced pass instead: it
// reports the per-layer metrics and writes its spans and per-layer
// metrics under --trace-dir. --workload all runs every workload in
// turn. --out appends each workload's record to a ledger file, and
// -compare parent.json change.json judges one ledger (or, as
// file#set, one labelled set of it) against another with the bounds
// in BENCHMARK.json. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Metric is one reported figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's output: the last line of standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// report is one workload's result plus what the ledger keeps beside
// it: the sample count behind each metric, the exact CONGEST counts,
// the first failure reasons and notes on how a figure was taken.
type report struct {
	Result
	Samples  map[string]int
	Rounds   int64
	Messages int64
	Errors   []string
	Notes    []string
}

func newReport() *report {
	return &report{Result: Result{Metrics: make(map[string]Metric)}, Samples: make(map[string]int)}
}

// put records metric name with n samples behind it.
func (r *report) put(name string, v float64, n int) {
	r.Metrics[name] = Metric{Value: v, Unit: unitOf(name)}
	r.Samples[name] = n
}

// absorb copies the gate's verdict into the report.
func (r *report) absorb(gt *gate) {
	r.Attempted += gt.attempted
	r.Failed += gt.failed
	r.Errors = append(r.Errors, gt.errs...)
}

// unitOf derives a metric's unit from its name.
func unitOf(name string) string {
	has := func(s string) bool { return strings.Contains(name, s) }
	switch {
	case has("_mb"):
		return "MiB"
	case has("ns_per_"):
		return "ns"
	case has("bytes_per_msg"):
		return "B/msg"
	case has("frames_per_round"):
		return "frame/round"
	case has("delivered_per_window"):
		return "msg/window"
	case has("bytes_out"):
		return "B"
	case has("shard_skew"):
		return "ratio"
	case has("_frac"), has("_ratio"), has("trace_overhead"):
		return "fraction"
	case strings.HasSuffix(name, "_s"), has("_s."), has("_s_"):
		return "s"
	default:
		return "count"
	}
}

// runOpts carries the command line to a workload.
type runOpts struct {
	seed    uint64
	seconds time.Duration
	traced  bool
	tr      *tracer // nil unless traced
}

// workloads are the benchmark's workloads, in the order --workload all
// runs them. BENCHMARK.json records why each was chosen.
var workloads = []struct {
	name string
	run  func(context.Context, runOpts) (*report, error)
}{
	{"random-sparse", func(ctx context.Context, o runOpts) (*report, error) { return runGraph(ctx, o, randomSparse) }},
	{"lollipop-highd", func(ctx context.Context, o runOpts) (*report, error) { return runGraph(ctx, o, lollipopHighD) }},
	{"serve-mixed", func(ctx context.Context, o runOpts) (*report, error) { return runServe(ctx, o, serveMixed) }},
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 30, "how long each workload measures, in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "trace"), "where the traced pass writes its spans and per-layer metrics")
	out := fs.String("out", "", "append each workload's record to this ledger file")
	set := fs.String("set", "", "label stored with the ledger records")
	compare := fs.Bool("compare", false, "compare two ledgers, each a file or file#set: -compare parent.json change.json")
	benchFile := fs.String("benchmark", "BENCHMARK.json", "benchmark definition holding the regression bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perfbench: -compare needs two ledger files")
			return 2
		}
		return runCompare(*benchFile, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "perfbench: --trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: --seconds must be positive, got %v\n", *seconds)
		return 2
	}
	var selected []string
	if *name == "all" {
		selected = workloadNames()
	} else {
		selected = []string{*name}
	}
	o := runOpts{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)), traced: *trace == 1}

	combined := Result{Correct: true, Metrics: make(map[string]Metric)}
	for _, wl := range selected {
		r, err := runWorkload(wl, o, *traceDir)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", wl, err)
			return 2
		}
		printReport(stdout, stderr, wl, o, r)
		if *out != "" {
			if err := appendLedger(*out, newRecord(wl, *set, o, r)); err != nil {
				fmt.Fprintf(stderr, "perfbench: %v\n", err)
				return 2
			}
		}
		combined.Correct = combined.Correct && r.Correct
		combined.Attempted += r.Attempted
		combined.Failed += r.Failed
		for k, m := range r.Metrics {
			if len(selected) > 1 {
				k = wl + "/" + k
			}
			combined.Metrics[k] = m
		}
	}
	line, err := json.Marshal(combined)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !combined.Correct {
		return 1
	}
	return 0
}

// runWorkload runs the named workload.
func runWorkload(name string, o runOpts, traceDir string) (*report, error) {
	for _, w := range workloads {
		if w.name == name {
			return measure(w.run, name, o, traceDir)
		}
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %s, all)", name, strings.Join(workloadNames(), ", "))
}

// workloadLimit is how long a workload measuring for seconds may run
// before its context ends: a stuck run must not outlive the
// benchmark's time limit.
func workloadLimit(seconds time.Duration) time.Duration { return 2*seconds + 90*time.Second }

// measure runs a workload under its time limit and writes the traced
// pass's spans.
func measure(run func(context.Context, runOpts) (*report, error), name string, o runOpts, traceDir string) (*report, error) {
	ctx, cancel := context.WithTimeout(context.Background(), workloadLimit(o.seconds))
	defer cancel()
	if o.traced {
		o.tr = newTracer()
	}
	r, err := run(ctx, o)
	if err != nil {
		return nil, err
	}
	r.Correct = r.Failed == 0 && r.Attempted > 0
	if o.traced {
		stem := fmt.Sprintf("%s-seed%d", name, o.seed)
		if err := o.tr.write(traceDir, stem, r.Metrics, r.Samples); err != nil {
			return nil, fmt.Errorf("writing the trace: %w", err)
		}
	}
	return r, nil
}

// printReport writes the human-readable block: one line per metric
// with its unit and sample count, then the outcome.
func printReport(stdout, stderr io.Writer, name string, o runOpts, r *report) {
	fmt.Fprintf(stdout, "# %s seed=%d seconds=%g trace=%t\n", name, o.seed, o.seconds.Seconds(), o.traced)
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := r.Metrics[k]
		fmt.Fprintf(stdout, "%-44s %14.6g %-12s n=%d\n", k, m.Value, m.Unit, r.Samples[k])
	}
	for _, n := range r.Notes {
		fmt.Fprintf(stdout, "# %s\n", n)
	}
	fmt.Fprintf(stdout, "# correct=%t attempted=%d failed=%d rounds=%d messages=%d\n",
		r.Correct, r.Attempted, r.Failed, r.Rounds, r.Messages)
	for _, e := range r.Errors {
		fmt.Fprintf(stderr, "perfbench: %s: %s\n", name, e)
	}
}
