package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// ledgerSchema names the ledger format; every result file this
// benchmark writes, and every file -compare reads, carries it.
const ledgerSchema = "congestmst-perfbench/v1"

// ledger is a result file: the records of any number of runs.
type ledger struct {
	Schema string   `json:"schema"`
	Runs   []record `json:"runs"`
}

// record is one workload run: its output line, the sample count behind
// each metric, the exact CONGEST counts and the host it ran on.
type record struct {
	Workload string         `json:"workload"`
	Set      string         `json:"set,omitempty"`
	Seed     uint64         `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Trace    int            `json:"trace"`
	Result   Result         `json:"result"`
	Samples  map[string]int `json:"samples"`
	Rounds   int64          `json:"rounds"`
	Messages int64          `json:"messages"`
	Host     host           `json:"host"`
}

// host identifies the machine and build behind a record.
type host struct {
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Time       string `json:"time"`
}

func newRecord(workload, set string, o runOpts, r *report) record {
	trace := 0
	if o.traced {
		trace = 1
	}
	return record{
		Workload: workload, Set: set, Seed: o.seed, Seconds: o.seconds.Seconds(), Trace: trace,
		Result: r.Result, Samples: r.Samples, Rounds: r.Rounds, Messages: r.Messages,
		Host: hostInfo(),
	}
}

// hostInfo describes this host and build. The commit is the one the
// binary was built from, when it was built inside a git checkout.
func hostInfo() host {
	h := host{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        "unknown",
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Time:       time.Now().UTC().Format(time.RFC3339),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, dirty string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					dirty = "+modified"
				}
			}
		}
		if rev != "" {
			h.Commit = rev + dirty
		}
	}
	return h
}

// loadLedger reads a ledger file; a missing file is an empty ledger.
func loadLedger(path string) (*ledger, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return &ledger{Schema: ledgerSchema}, nil
	}
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if l.Schema != ledgerSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, l.Schema, ledgerSchema)
	}
	return &l, nil
}

// loadLedgerSet reads a ledger named as path or path#set; with a set
// label it keeps only that set's records.
func loadLedgerSet(arg string) (*ledger, error) {
	path, set, filtered := strings.Cut(arg, "#")
	l, err := loadLedger(path)
	if err != nil || !filtered {
		return l, err
	}
	var runs []record
	for _, r := range l.Runs {
		if r.Set == set {
			runs = append(runs, r)
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no records of set %q", path, set)
	}
	l.Runs = runs
	return l, nil
}

// appendLedger adds rec to the ledger at path, replacing the file
// whole so an interrupted write never leaves it half written.
func appendLedger(path string, rec record) error {
	l, err := loadLedger(path)
	if err != nil {
		return err
	}
	l.Runs = append(l.Runs, rec)
	data, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".ledger-*")
	if err != nil {
		return err
	}
	abandon := func(err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		return abandon(err)
	}
	if err := tmp.Chmod(0o644); err != nil {
		return abandon(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// benchDef is the part of BENCHMARK.json the comparison needs.
type benchDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmark(path string) (*benchDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d benchDef
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// Verdicts of a comparison.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

// judgement compares one metric of one workload across two sets.
type judgement struct {
	parent, change [3]float64 // quartiles: q1, median, q3
	delta          float64    // (change − parent) / parent median
	verdict        string
}

// minPairs is how many same-seed pairs of parent and change runs a
// paired gain needs.
const minPairs = 10

// judge compares two sets of runs of one metric. pairs holds the
// values of the runs both sets made with the same seed, parent first.
//
//   - better: every run of the change beats every run of the parent;
//     or, over at least minPairs pairs, the change wins at least 9 in
//     10 and its median beats the parent's by more than the parent's
//     own spread;
//   - unresolved: otherwise, when either set's spread (interquartile
//     distance over median) is wider than the bound;
//   - worse: the median got worse by more than the bound;
//   - unchanged: anything else.
func judge(parent, change []float64, pairs [][2]float64, lowerBetter bool, bound float64) judgement {
	var j judgement
	j.parent[0], j.parent[1], j.parent[2] = quartiles(parent)
	j.change[0], j.change[1], j.change[2] = quartiles(change)
	j.delta = ratio(j.change[1]-j.parent[1], j.parent[1])
	worse := j.delta
	if !lowerBetter {
		worse = -worse
	}
	beats := func(c, p float64) bool { return (lowerBetter && c < p) || (!lowerBetter && c > p) }
	allBetter := len(parent) > 0 && len(change) > 0
	for _, c := range change {
		for _, p := range parent {
			allBetter = allBetter && beats(c, p)
		}
	}
	wins := 0
	for _, pr := range pairs {
		if beats(pr[1], pr[0]) {
			wins++
		}
	}
	switch {
	case allBetter:
		j.verdict = verdictBetter
	case max(spread(parent), spread(change)) > bound:
		j.verdict = verdictUnresolved
	case worse > bound:
		j.verdict = verdictWorse
	case len(pairs) >= minPairs && -worse > spread(parent) && float64(wins) >= 0.9*float64(len(pairs)):
		j.verdict = verdictBetter
	default:
		j.verdict = verdictUnchanged
	}
	return j
}

// comparison is the outcome of comparing two ledgers.
type comparison struct {
	rows  []compareRow
	fails []string
}

type compareRow struct {
	workload, metric, unit string
	j                      judgement
}

// untraced returns the ledger's untraced records of a workload, by seed
// (the last record wins when a seed repeats).
func (l *ledger) untraced(workload string) map[uint64]record {
	out := make(map[uint64]record)
	for _, r := range l.Runs {
		if r.Workload == workload && r.Trace == 0 {
			out[r.Seed] = r
		}
	}
	return out
}

// compareLedgers judges every workload × end-to-end metric of def, and
// lists the failures: a run that was not correct, runs of one seed that
// differ in rounds, messages or run length, or a higher error rate.
func compareLedgers(def *benchDef, parent, change *ledger) comparison {
	var c comparison
	for _, w := range def.Workloads {
		pr, cr := parent.untraced(w.Name), change.untraced(w.Name)
		if len(pr) == 0 || len(cr) == 0 {
			c.fails = append(c.fails, fmt.Sprintf("%s: no untraced runs in one of the ledgers (%d vs %d)", w.Name, len(pr), len(cr)))
			continue
		}
		seeds := make([]uint64, 0, len(cr))
		for s := range cr {
			seeds = append(seeds, s)
		}
		sort.Slice(seeds, func(a, b int) bool { return seeds[a] < seeds[b] })
		var pAtt, pFail, cAtt, cFail int
		for _, r := range pr {
			pAtt, pFail = pAtt+r.Result.Attempted, pFail+r.Result.Failed
		}
		for _, s := range seeds {
			r := cr[s]
			cAtt, cFail = cAtt+r.Result.Attempted, cFail+r.Result.Failed
			if !r.Result.Correct {
				c.fails = append(c.fails, fmt.Sprintf("%s seed %d: the change's run was not correct", w.Name, s))
			}
			p, ok := pr[s]
			if !ok {
				continue
			}
			if p.Rounds != r.Rounds || p.Messages != r.Messages {
				c.fails = append(c.fails, fmt.Sprintf("%s seed %d: rounds/messages %d/%d became %d/%d",
					w.Name, s, p.Rounds, p.Messages, r.Rounds, r.Messages))
			}
			if p.Seconds != r.Seconds {
				c.fails = append(c.fails, fmt.Sprintf("%s seed %d: run length %gs became %gs", w.Name, s, p.Seconds, r.Seconds))
			}
		}
		if ratio(float64(cFail), float64(cAtt)) > ratio(float64(pFail), float64(pAtt)) {
			c.fails = append(c.fails, fmt.Sprintf("%s: error rate rose from %d/%d to %d/%d", w.Name, pFail, pAtt, cFail, cAtt))
		}
		for _, m := range def.EndToEnd {
			var pv, cv []float64
			var pairs [][2]float64
			for _, r := range pr {
				if v, ok := r.Result.Metrics[m.Name]; ok {
					pv = append(pv, v.Value)
				}
			}
			for _, s := range seeds {
				v, ok := cr[s].Result.Metrics[m.Name]
				if !ok {
					continue
				}
				cv = append(cv, v.Value)
				if p, ok := pr[s].Result.Metrics[m.Name]; ok {
					pairs = append(pairs, [2]float64{p.Value, v.Value})
				}
			}
			if len(pv) == 0 || len(cv) == 0 {
				c.fails = append(c.fails, fmt.Sprintf("%s: metric %s missing", w.Name, m.Name))
				continue
			}
			c.rows = append(c.rows, compareRow{w.Name, m.Name, m.Unit, judge(pv, cv, pairs, m.Better != "higher", m.Bound)})
		}
	}
	return c
}

// runCompare prints the comparison of two ledgers and returns the exit
// code: 1 when there is a failure, 0 otherwise.
func runCompare(benchPath, parentPath, changePath string, stdout, stderr io.Writer) int {
	def, err := loadBenchmark(benchPath)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	var ls [2]*ledger
	for i, p := range []string{parentPath, changePath} {
		if ls[i], err = loadLedgerSet(p); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 2
		}
	}
	c := compareLedgers(def, ls[0], ls[1])
	fmt.Fprintf(stdout, "%-15s %-22s %-34s %-34s %8s  %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "delta", "verdict")
	for _, r := range c.rows {
		q := func(x [3]float64) string { return fmt.Sprintf("%.4g [%.4g, %.4g] %s", x[1], x[0], x[2], r.unit) }
		fmt.Fprintf(stdout, "%-15s %-22s %-34s %-34s %+7.1f%%  %s\n", r.workload, r.metric, q(r.j.parent), q(r.j.change), 100*r.j.delta, r.j.verdict)
	}
	for _, f := range c.fails {
		fmt.Fprintf(stdout, "FAIL %s\n", f)
	}
	if len(c.fails) > 0 {
		return 1
	}
	return 0
}
