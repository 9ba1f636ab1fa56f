package nettrans

import (
	"context"
	"errors"
	"os"
	"runtime"
	"testing"
	"time"

	"congestmst/internal/graph"
)

// countFDs reads this process's open file-descriptor count; skipped on
// platforms without /proc.
func countFDs(t *testing.T) int {
	t.Helper()
	ents, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("fd counting unavailable: %v", err)
	}
	return len(ents)
}

// awaitFDBaseline polls until the fd count is back at (or below)
// baseline: a cancelled cluster must close every mesh socket.
func awaitFDBaseline(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for countFDs(t) > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("fds leaked after cancel: %d, baseline %d", countFDs(t), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// awaitGoroutines waits for the goroutine count to settle back to (or
// near) baseline: shard loops and socket readers must all unwind.
func awaitGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+2 {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after cancel: %d, baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRunContextCancelReleasesSockets cancels an endlessly stepping
// cluster run mid-flight: every shard loop observes the dropped mesh
// within one round, the error wraps context.Canceled, and both
// the goroutine and the fd counts return to their pre-run baselines
// (all Shards·(Shards-1)/2 sockets closed).
func TestRunContextCancelReleasesSockets(t *testing.T) {
	g := graph.Ring(32, graph.GenOptions{Seed: 9})
	fdBaseline := countFDs(t)
	goBaseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errCh := make(chan error, 1)
	go func() {
		_, err := RunContext(ctx, g, Config{Shards: 4}, steps(g, stepForever))
		errCh <- err
	}()
	time.Sleep(50 * time.Millisecond)
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("error %v does not wrap context.Canceled", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("cancelled cluster did not return")
	}
	awaitGoroutines(t, goBaseline)
	awaitFDBaseline(t, fdBaseline)
}

// TestRunContextDeadlineOverTCP: a context deadline expiring mid-run
// surfaces as context.DeadlineExceeded with the mesh torn down.
func TestRunContextDeadlineOverTCP(t *testing.T) {
	g := graph.Ring(16, graph.GenOptions{Seed: 4})
	fdBaseline := countFDs(t)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := RunContext(ctx, g, Config{Shards: 3}, steps(g, stepForever))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error %v does not wrap context.DeadlineExceeded", err)
	}
	awaitFDBaseline(t, fdBaseline)
}

// TestRunContextPreCancelled: a dead context must not dial a single
// socket.
func TestRunContextPreCancelled(t *testing.T) {
	g := graph.Ring(8, graph.GenOptions{Seed: 2})
	fdBaseline := countFDs(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, g, Config{Shards: 4}, steps(g, stepForever))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
	if n := countFDs(t); n > fdBaseline {
		t.Errorf("pre-cancelled run left fds open: %d, baseline %d", n, fdBaseline)
	}
}
