package parsim

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"congestmst/internal/congest"
)

// awaitGoroutines waits for the goroutine count to settle back to (or
// near) baseline after a cancelled run: every pool worker must have
// unwound.
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
func stepForever(c congest.Context) congest.Step {
	return nextRound(c, func(c congest.Context, _ []congest.Inbound) congest.Step { return stepForever(c) })
}

// TestRunContextCancel cancels an endlessly stepping program mid-run.
// The engine checks its context at every round boundary (thousands per
// second here), so a prompt return means the cancellation was observed
// within one boundary; the worker pool must drain and the error must
// wrap context.Canceled.
func TestRunContextCancel(t *testing.T) {
	g := path3(t)
	baseline := runtime.NumGoroutine()
	e := NewEngine(g, Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errCh := make(chan error, 1)
	go func() {
		_, err := e.RunContext(ctx, congest.StepFiberFactory(g.N(), stepForever))
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
	e := NewEngine(g, Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := e.RunContext(ctx, congest.StepFiberFactory(g.N(), stepForever))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error %v does not wrap context.DeadlineExceeded", err)
	}
	awaitGoroutines(t, baseline)
}

// TestRunContextPreCancelled: a context that is already dead must not
// spawn a single goroutine.
func TestRunContextPreCancelled(t *testing.T) {
	g := path3(t)
	baseline := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := NewEngine(g, Config{}).RunContext(ctx, congest.StepFiberFactory(g.N(), stepForever))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
	if n := runtime.NumGoroutine(); n > baseline+2 {
		t.Errorf("pre-cancelled run spawned goroutines: %d, baseline %d", n, baseline)
	}
}
