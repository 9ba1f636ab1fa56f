package congestmst

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// longRunGraph is a workload that takes on the order of a minute
// uncancelled (a path has diameter n, so Elkin pays ~n rounds): any
// test below that returns quickly did so because cancellation worked.
func longRunGraph(t *testing.T) *Graph {
	t.Helper()
	return Path(20000, GenOptions{Seed: 5})
}

// cancelAlg spreads the algorithms over the engines: GHS (a hand-written
// Fiber) on the Fiber and Async engines, whose step-built algorithms
// TestFiberCancelElkinAndPipeline covers, and Elkin everywhere else.
func cancelAlg(eng Engine) Algorithm {
	if eng == Fiber || eng == Async {
		return GHS
	}
	return Elkin
}

// awaitGoroutineBaseline waits for the goroutine count to settle back
// to (or below) baseline plus slack: a cancelled engine must unwind
// every worker, shard loop and socket reader it spawned.
func awaitGoroutineBaseline(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+4 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after cancel: %d, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestRunContextCancelAllEngines cancels a minute-scale run on every
// engine shortly after it starts. Each engine checks its context at
// round boundaries (microseconds apart on this workload), so the
// observed multi-second bound is thousands of round boundaries of
// slack; the error must wrap context.Canceled and every goroutine must
// unwind.
func TestRunContextCancelAllEngines(t *testing.T) {
	g := longRunGraph(t)
	g.Connected() // warm the BFS outside the timed window
	for _, eng := range []Engine{Lockstep, Parallel, Cluster, Fiber, Async} {
		t.Run(eng.String(), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			type outcome struct {
				res *Result
				err error
			}
			ch := make(chan outcome, 1)
			start := time.Now()
			go func() {
				res, err := RunContext(ctx, g, Options{Engine: eng, Algorithm: cancelAlg(eng)})
				ch <- outcome{res, err}
			}()
			time.Sleep(100 * time.Millisecond)
			cancel()
			select {
			case out := <-ch:
				if out.err == nil {
					t.Fatal("cancelled run reported success")
				}
				if !errors.Is(out.err, context.Canceled) {
					t.Errorf("error %v does not wrap context.Canceled", out.err)
				}
				if elapsed := time.Since(start); elapsed > 15*time.Second {
					t.Errorf("cancellation took %v", elapsed)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("cancelled run did not return")
			}
			awaitGoroutineBaseline(t, baseline)
		})
	}
}

// TestRunContextDeadlineAllEngines is the deadline flavour: a context
// timeout must surface as context.DeadlineExceeded from every engine.
func TestRunContextDeadlineAllEngines(t *testing.T) {
	g := longRunGraph(t)
	g.Connected()
	for _, eng := range []Engine{Lockstep, Parallel, Cluster, Fiber, Async} {
		t.Run(eng.String(), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			_, err := RunContext(ctx, g, Options{Engine: eng, Algorithm: cancelAlg(eng)})
			if err == nil {
				t.Fatal("deadlined run reported success")
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("error %v does not wrap context.DeadlineExceeded", err)
			}
			awaitGoroutineBaseline(t, baseline)
		})
	}
}

// TestFiberCancelElkinAndPipeline cancels Elkin and Pipeline runs on
// the Fiber engine mid-flight, mirroring the GHS coverage above: their
// step-built fibers park as slab state inside the engine, so teardown
// must drop that state and unwind only the worker pool.
func TestFiberCancelElkinAndPipeline(t *testing.T) {
	g := longRunGraph(t)
	g.Connected()
	for _, alg := range []Algorithm{Elkin, Pipeline} {
		t.Run(alg.String()+"/cancel", func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			ch := make(chan error, 1)
			go func() {
				_, err := RunContext(ctx, g, Options{Engine: Fiber, Algorithm: alg})
				ch <- err
			}()
			time.Sleep(100 * time.Millisecond)
			cancel()
			select {
			case err := <-ch:
				if !errors.Is(err, context.Canceled) {
					t.Errorf("error %v does not wrap context.Canceled", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("cancelled fiber run did not return")
			}
			awaitGoroutineBaseline(t, baseline)
		})
		t.Run(alg.String()+"/deadline", func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			defer cancel()
			_, err := RunContext(ctx, g, Options{Engine: Fiber, Algorithm: alg})
			if err == nil {
				t.Fatal("deadlined run reported success")
			}
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("error %v does not wrap context.DeadlineExceeded", err)
			}
			awaitGoroutineBaseline(t, baseline)
		})
	}
}

// TestRunContextPreCancelled: an already-dead context must not spawn
// any engine at all.
func TestRunContextPreCancelled(t *testing.T) {
	g, err := RandomConnected(32, 96, GenOptions{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, eng := range []Engine{Lockstep, Parallel, Cluster, Fiber, Async} {
		if _, err := RunContext(ctx, g, Options{Engine: eng, Algorithm: cancelAlg(eng)}); !errors.Is(err, context.Canceled) {
			t.Errorf("%v: error %v does not wrap context.Canceled", eng, err)
		}
	}
}

// TestRunContextBackgroundEquivalent: RunContext under a background
// context is exactly Run.
func TestRunContextBackgroundEquivalent(t *testing.T) {
	g, err := RandomConnected(64, 192, GenOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunContext(context.Background(), g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Weight != b.Weight || a.Rounds != b.Rounds || a.Messages != b.Messages {
		t.Errorf("RunContext diverged from Run: %+v vs %+v", a, b)
	}
}
