package congest

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"
)

// awaitGoroutines waits for the goroutine count to settle back to (or
// near) baseline after a cancelled run.
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

// stepForever parks for the next round, every round, forever.
func stepForever(c Context) Step {
	return nextRound(c, func(c Context, _ []Inbound) Step { return stepForever(c) })
}

// TestRunContextCancel cancels an endlessly stepping program. The
// engine checks its context at every round boundary — and this program
// produces thousands of boundaries per second — so a prompt return
// here means cancellation was observed within one boundary, with the
// error wrapping context.Canceled.
func TestRunContextCancel(t *testing.T) {
	g := path3(t)
	baseline := runtime.NumGoroutine()
	e := NewEngine(g, Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errCh := make(chan error, 1)
	go func() {
		_, err := e.RunContext(ctx, StepFiberFactory(g.N(), stepForever))
		errCh <- err
	}()
	time.Sleep(30 * time.Millisecond)
	cancel()
	select {
	case err := <-errCh:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("error %v does not wrap context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled engine did not return")
	}
	awaitGoroutines(t, baseline)
}

// TestRunContextDeadline: an expiring context deadline surfaces as
// context.DeadlineExceeded.
func TestRunContextDeadline(t *testing.T) {
	g := path3(t)
	baseline := runtime.NumGoroutine()
	e := NewEngine(g, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := e.RunContext(ctx, StepFiberFactory(g.N(), stepForever))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error %v does not wrap context.DeadlineExceeded", err)
	}
	awaitGoroutines(t, baseline)
}

// TestRunContextPreCancelled: a context that is already dead must not
// start a single fiber or goroutine.
func TestRunContextPreCancelled(t *testing.T) {
	g := path3(t)
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	started := false
	_, err := NewEngine(g, Config{}).RunContext(ctx, StepFiberFactory(g.N(), func(c Context) Step {
		started = true
		return stepForever(c)
	}))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
	if started {
		t.Error("pre-cancelled run started a fiber")
	}
	if n := runtime.NumGoroutine(); n > baseline+2 {
		t.Errorf("pre-cancelled run spawned goroutines: %d, baseline %d", n, baseline)
	}
}

// TestRunDelegatesToRunContext: the classic Run still completes
// normally (it is RunContext under context.Background()).
func TestRunDelegatesToRunContext(t *testing.T) {
	g := path3(t)
	stats, err := run(g, Config{}, func(c Context) Step { return nextRound(c, done) })
	if err != nil {
		t.Fatal(err)
	}
	if stats.Rounds != 1 {
		t.Errorf("Rounds = %d, want 1", stats.Rounds)
	}
}
