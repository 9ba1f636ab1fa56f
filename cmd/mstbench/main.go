// Command mstbench regenerates the reproduction experiments E1-E10
// defined in internal/bench, printing one table per experiment: at the
// quick scale by default, at the larger sweeps with -full. Every
// experiment runs on Lockstep, the reference engine; engine speed and
// memory are perfbench's to measure.
//
// Usage:
//
//	mstbench [-full] [-e e1,e5] [-trace dir]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"congestmst/internal/bench"
)

func main() {
	full := flag.Bool("full", false, "run the experiments at full scale (the larger sweeps) instead of the quick one")
	only := flag.String("e", "", "comma-separated experiment ids (default: all)")
	traceDir := flag.String("trace", "", "write one NDJSON run trace per experiment run into this directory (created if missing)")
	flag.Parse()
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "mstbench:", err)
			os.Exit(1)
		}
		bench.TraceDir = *traceDir
	}
	// Ctrl-C cancels the sweep at the next round boundary: the run in
	// flight returns its error, and its -trace file still gets the
	// summary line, instead of the process dying mid-run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	bench.BaseContext = ctx
	if err := run(*full, *only); err != nil {
		fmt.Fprintln(os.Stderr, "mstbench:", err)
		os.Exit(1)
	}
}

func run(full bool, only string) error {
	var ids []string
	if only != "" {
		ids = strings.Split(only, ",")
	} else {
		for _, e := range bench.All() {
			ids = append(ids, e.ID)
		}
	}
	for _, id := range ids {
		exp, ok := bench.Lookup(strings.TrimSpace(id))
		if !ok {
			return fmt.Errorf("unknown experiment %q", id)
		}
		start := time.Now()
		table, err := exp.Run(full)
		if err != nil {
			return fmt.Errorf("%s: %w", exp.ID, err)
		}
		fmt.Print(table.Format())
		fmt.Printf("   (%s in %v)\n\n", exp.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}
