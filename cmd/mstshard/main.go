// Command mstshard hosts shards of a distributed Cluster-engine run.
//
// A worker is config-free: it binds one address and waits. Every run
// arrives as a control job from the driver (mstrun -cluster, or an
// mstserved job with a cluster option) carrying the graph, the shard
// topology and the transport tuning; the worker executes its assigned
// shards, joins the mesh with its peers, and streams the result back.
//
//	mstshard -addr 127.0.0.1:7100
//
// The same listener serves both control connections (from drivers)
// and mesh connections (from peer workers); they are told apart by
// their protocol magic. -chaos-close-after is a fault-injection hook
// for exercising the mesh reconnect path: in every run, each mesh link
// of the worker severs its connection once, under the N-th batch it
// writes. Only this flag turns it on; a driver's job frame cannot.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"congestmst/internal/cluster"
)

func main() {
	var (
		addr  = flag.String("addr", "", "address to listen on, e.g. 127.0.0.1:7100 (required)")
		chaos = flag.Int64("chaos-close-after", 0, "fault injection: every mesh link closes its connection under the N-th batch it writes in each run (0 = off)")
		quiet = flag.Bool("quiet", false, "suppress per-connection logging")
	)
	flag.Parse()
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "mstshard: -addr is required")
		flag.Usage()
		os.Exit(2)
	}

	opts := cluster.WorkerOptions{ChaosCloseAfter: *chaos}
	if !*quiet {
		opts.Logf = log.Printf
	}
	w, err := cluster.NewWorker(*addr, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mstshard:", err)
		os.Exit(1)
	}
	log.Printf("mstshard: listening on %s", w.Addr())

	// SIGINT/SIGTERM close the listener; Serve then returns nil and
	// in-flight runs unwind through their own contexts.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigs
		log.Printf("mstshard: %v, shutting down", s)
		w.Close()
	}()

	if err := w.Serve(); err != nil {
		fmt.Fprintln(os.Stderr, "mstshard:", err)
		os.Exit(1)
	}
}
