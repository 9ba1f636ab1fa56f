package parsim

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"congestmst/internal/congest"
	"congestmst/internal/graph"
)

// quiesceFiber is floodFiber rewritten against the async contract: it
// parks with ParkQuiesce instead of a computed round target, which on
// the windowed path means "wake when the current delivery window
// closes" and on the barrier engines degrades to ParkUntil(Round()+1).
type quiesceFiber struct {
	rounds int
	best   int64
	r      int
	skip   bool
}

func (f *quiesceFiber) Start(c congest.Context) congest.Park {
	f.best = int64(c.ID())
	return f.begin(c)
}

func (f *quiesceFiber) begin(c congest.Context) congest.Park {
	f.skip = f.best%2 == 0 && f.r%3 == 2
	if !f.skip {
		for p := 0; p < c.Degree(); p++ {
			c.Send(p, congest.Message{Kind: byte(p % 5), A: f.best})
		}
	}
	return congest.ParkQuiesce
}

func (f *quiesceFiber) Resume(c congest.Context, msgs []congest.Inbound) congest.Park {
	if !f.skip {
		for _, in := range msgs {
			if in.Msg.A < f.best {
				f.best = in.Msg.A
			}
		}
	}
	if f.r++; f.r >= f.rounds {
		return congest.ParkDone
	}
	return f.begin(c)
}

// TestAsyncStatsMatchLockstep is the windowed path's half of the
// package contract: removing the round barrier changes when work
// happens on the wall clock, not what the algorithm observes, so
// Rounds, Messages and ByKind must come out bit-identical to the
// Step form on the lockstep engine — across worker counts, seeds,
// and on both sides of the inline/parallel threshold.
func TestAsyncStatsMatchLockstep(t *testing.T) {
	sizes := []struct{ n, m int }{{40, 100}, {300, 900}, {1500, 4000}}
	if testing.Short() {
		sizes = sizes[:2]
	}
	for _, sz := range sizes {
		g, err := graph.RandomConnected(sz.n, sz.m, graph.GenOptions{Seed: uint64(sz.n)})
		if err != nil {
			t.Fatal(err)
		}
		ref := lockstepFlood(t, g, 12)
		for _, workers := range []int{1, 2, 4, 7} {
			for _, seed := range []uint64{0, 1, 99} {
				got, err := NewEngine(g, Config{Workers: workers}).RunAsync(context.Background(),
					func(int) congest.Fiber { return &quiesceFiber{rounds: 12} }, seed)
				if err != nil {
					t.Fatalf("async n=%d workers=%d seed=%d: %v", sz.n, workers, seed, err)
				}
				if *got != *ref {
					t.Errorf("n=%d workers=%d seed=%d: async stats differ from lockstep:\nasync:    %+v\nlockstep: %+v",
						sz.n, workers, seed, got, ref)
				}
			}
		}
	}
}

// asyncRecorder captures the Async engine's event streams. The mutex
// makes it safe under multi-worker runs, where deliveries for distinct
// shards may be reported concurrently.
type asyncRecorder struct {
	mu         sync.Mutex
	deliveries []congest.DeliveryEvent
	quiesces   []congest.QuiesceEvent
	rounds     []congest.RoundEvent
}

func (r *asyncRecorder) OnRound(ev congest.RoundEvent) {
	r.mu.Lock()
	r.rounds = append(r.rounds, ev)
	r.mu.Unlock()
}

func (r *asyncRecorder) OnPhase(congest.PhaseEvent) {}

func (r *asyncRecorder) OnDelivery(ev congest.DeliveryEvent) {
	r.mu.Lock()
	r.deliveries = append(r.deliveries, ev)
	r.mu.Unlock()
}

func (r *asyncRecorder) OnQuiesce(ev congest.QuiesceEvent) {
	r.mu.Lock()
	r.quiesces = append(r.quiesces, ev)
	r.mu.Unlock()
}

// TestAsyncSeededDeterminism pins the reproducibility half of the
// async contract: with a single worker the seed fixes the entire
// physical schedule, so two runs with the same seed must report
// bit-identical Stats and byte-identical delivery/quiesce event
// streams (WallNanos excluded — wall time is not part of the
// schedule).
func TestAsyncSeededDeterminism(t *testing.T) {
	g, err := graph.RandomConnected(200, 600, graph.GenOptions{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	run := func(seed uint64) (*congest.Stats, *asyncRecorder) {
		rec := &asyncRecorder{}
		stats, err := NewEngine(g, Config{Workers: 1, Observer: rec}).RunAsync(
			context.Background(), func(int) congest.Fiber { return &quiesceFiber{rounds: 10} }, seed)
		if err != nil {
			t.Fatalf("async seed=%d: %v", seed, err)
		}
		return stats, rec
	}
	for _, seed := range []uint64{7, 42} {
		s1, r1 := run(seed)
		s2, r2 := run(seed)
		if *s1 != *s2 {
			t.Errorf("seed %d: stats differ across identical runs:\nfirst:  %+v\nsecond: %+v", seed, s1, s2)
		}
		if len(r1.deliveries) != len(r2.deliveries) {
			t.Fatalf("seed %d: %d vs %d delivery events", seed, len(r1.deliveries), len(r2.deliveries))
		}
		for i := range r1.deliveries {
			if r1.deliveries[i] != r2.deliveries[i] {
				t.Fatalf("seed %d: delivery event %d differs: %+v vs %+v",
					seed, i, r1.deliveries[i], r2.deliveries[i])
			}
		}
		if len(r1.quiesces) != len(r2.quiesces) {
			t.Fatalf("seed %d: %d vs %d quiesce events", seed, len(r1.quiesces), len(r2.quiesces))
		}
		for i := range r1.quiesces {
			a, b := r1.quiesces[i], r2.quiesces[i]
			a.WallNanos, b.WallNanos = 0, 0
			if a != b {
				t.Fatalf("seed %d: quiesce event %d differs: %+v vs %+v", seed, i, a, b)
			}
		}
	}
}

// TestAsyncObserverAccounting cross-checks the event streams against
// the run's Stats: drained messages must sum to Stats.Messages on both
// the delivery and the quiesce side, every window must close with
// nothing in flight, and the cumulative RoundEvents the plain Observer
// interface receives must end at the final totals.
func TestAsyncObserverAccounting(t *testing.T) {
	g, err := graph.RandomConnected(150, 450, graph.GenOptions{Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	rec := &asyncRecorder{}
	stats, err := NewEngine(g, Config{Workers: 3, Observer: rec}).RunAsync(
		context.Background(), func(int) congest.Fiber { return &quiesceFiber{rounds: 9} }, 5)
	if err != nil {
		t.Fatal(err)
	}
	var delivered, quiesced int64
	for _, ev := range rec.deliveries {
		if ev.Count <= 0 {
			t.Errorf("delivery event with count %d", ev.Count)
		}
		delivered += int64(ev.Count)
	}
	for i, ev := range rec.quiesces {
		quiesced += ev.Delivered
		if ev.Window != int64(i)+1 {
			t.Errorf("quiesce %d has window %d", i, ev.Window)
		}
		if ev.Executed <= 0 {
			t.Errorf("window %d executed %d vertices", ev.Window, ev.Executed)
		}
	}
	if delivered != stats.Messages {
		t.Errorf("delivery events account for %d messages, Stats.Messages = %d", delivered, stats.Messages)
	}
	if quiesced != stats.Messages {
		t.Errorf("quiesce events account for %d messages, Stats.Messages = %d", quiesced, stats.Messages)
	}
	if len(rec.rounds) == 0 {
		t.Fatal("async run emitted no RoundEvents for the plain Observer interface")
	}
	if last := rec.rounds[len(rec.rounds)-1]; last.Messages != stats.Messages {
		t.Errorf("final RoundEvent cumulative messages %d, Stats.Messages %d", last.Messages, stats.Messages)
	}
}

// quiesceParkFiber pins ParkQuiesce's wake semantics on the windowed
// path: a send in window T must arrive exactly when the T+1 window
// opens, observable through the logical clock.
type quiesceParkFiber struct {
	wokeAt  *int64
	gotMsgs *[]congest.Inbound
	send    bool
}

func (f *quiesceParkFiber) Start(c congest.Context) congest.Park {
	if f.send {
		c.Send(0, congest.Message{A: 9})
	}
	return congest.ParkQuiesce
}

func (f *quiesceParkFiber) Resume(c congest.Context, msgs []congest.Inbound) congest.Park {
	if f.wokeAt != nil {
		*f.wokeAt = c.Round()
	}
	if f.gotMsgs != nil {
		*f.gotMsgs = msgs
	}
	return congest.ParkDone
}

func TestAsyncQuiesceParkDelivery(t *testing.T) {
	g := pair(t)
	var woke int64 = -1
	var got []congest.Inbound
	_, err := NewEngine(g, Config{}).RunAsync(context.Background(),
		func(id int) congest.Fiber {
			if id == 0 {
				return &quiesceParkFiber{send: true}
			}
			return &quiesceParkFiber{wokeAt: &woke, gotMsgs: &got}
		}, 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if woke != 1 {
		t.Errorf("quiesce-parked fiber woke at clock %d, want 1", woke)
	}
	if len(got) != 1 || got[0].Msg.A != 9 {
		t.Errorf("got %v, want the A=9 message", got)
	}
}

// TestAsyncFastForward: calendar-parked fibers fast-forward the logical
// clock on the windowed path exactly as on the barrier engines.
func TestAsyncFastForward(t *testing.T) {
	g := pair(t)
	var woke0, woke1 int64
	start := time.Now()
	stats, err := NewEngine(g, Config{}).RunAsync(context.Background(),
		func(id int) congest.Fiber {
			woke := &woke0
			if id == 1 {
				woke = &woke1
			}
			return &parkFiber{target: 1_000_000, sendTo: -1, wokeAt: woke}
		}, 0)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.Rounds != 1_000_000 {
		t.Errorf("Rounds = %d, want 1000000", stats.Rounds)
	}
	if woke0 != 1_000_000 || woke1 != 1_000_000 {
		t.Errorf("woke at %d and %d, want 1000000", woke0, woke1)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("fast-forward took %v; parked fibers are not O(1)", elapsed)
	}
}

// TestAsyncRunContextCancel cancels an endlessly stepping async run:
// prompt return wrapping context.Canceled, no per-vertex goroutines at
// any point, all vertex state released.
func TestAsyncRunContextCancel(t *testing.T) {
	g := path3(t)
	baseline := runtime.NumGoroutine()
	e := NewEngine(g, Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errCh := make(chan error, 1)
	go func() {
		_, err := e.RunAsync(ctx, func(int) congest.Fiber { return stepperFiber{} }, 0)
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
		t.Fatal("cancelled async engine did not return")
	}
	if e.nodes != nil {
		t.Error("cancelled async run left vertex state live")
	}
	awaitGoroutines(t, baseline)
}

// TestAsyncRunContextDeadline: an expiring deadline surfaces as
// context.DeadlineExceeded with no state left behind.
func TestAsyncRunContextDeadline(t *testing.T) {
	g := path3(t)
	baseline := runtime.NumGoroutine()
	e := NewEngine(g, Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := e.RunAsync(ctx, func(int) congest.Fiber { return stepperFiber{} }, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error %v does not wrap context.DeadlineExceeded", err)
	}
	if e.nodes != nil {
		t.Error("deadline-expired async run left vertex state live")
	}
	awaitGoroutines(t, baseline)
}

// TestAsyncRunContextPreCancelled: a dead context stops the run before
// a single fiber is constructed.
func TestAsyncRunContextPreCancelled(t *testing.T) {
	g := path3(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	started := false
	_, err := NewEngine(g, Config{}).RunAsync(ctx, func(int) congest.Fiber {
		started = true
		return stepperFiber{}
	}, 0)
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
	if started {
		t.Error("pre-cancelled run constructed fibers")
	}
}

// TestAsyncPanicReported: a fiber panic aborts the windowed run with a
// report, like every other mode.
func TestAsyncPanicReported(t *testing.T) {
	g := path3(t)
	_, err := NewEngine(g, Config{}).RunAsync(context.Background(),
		func(id int) congest.Fiber {
			if id == 1 {
				return panicFiber{}
			}
			return stepperFiber{}
		}, 0)
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want panic report", err)
	}
}

// TestAsyncBlockingCallRejected: the fiber contract's no-blocking rule
// holds on the windowed path too.
func TestAsyncBlockingCallRejected(t *testing.T) {
	requireNoReceive(t, func(f congest.Fiber) error {
		_, err := NewEngine(pair(t), Config{}).RunAsync(context.Background(),
			func(int) congest.Fiber { return f }, 0)
		return err
	})
}

// TestAsyncEngineSingleUse: the async entry point shares the
// single-use contract.
func TestAsyncEngineSingleUse(t *testing.T) {
	g := pair(t)
	e := NewEngine(g, Config{})
	factory := func(int) congest.Fiber { return &quiesceFiber{rounds: 1} }
	if _, err := e.RunAsync(context.Background(), factory, 0); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if _, err := e.RunAsync(context.Background(), factory, 0); !errors.Is(err, congest.ErrReused) {
		t.Fatalf("second run err = %v, want ErrReused", err)
	}
}

// TestAsyncDeadlock: every fiber awaiting with nothing in flight is
// the same deadlock every engine reports.
func TestAsyncDeadlock(t *testing.T) {
	g := pair(t)
	_, err := NewEngine(g, Config{}).RunAsync(context.Background(),
		func(int) congest.Fiber { return &parkFiber{target: congest.Forever, sendTo: -1} }, 0)
	if !errors.Is(err, congest.ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

// TestAsyncNoGoroutineGrowth: the windowed path spawns only the worker
// pool, never per-vertex goroutines, whatever the graph size.
func TestAsyncNoGoroutineGrowth(t *testing.T) {
	g, err := graph.RandomConnected(3000, 9000, graph.GenOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	peak := 0
	done := make(chan struct{})
	stop := make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if n := runtime.NumGoroutine(); n > peak {
				peak = n
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()
	if _, err := NewEngine(g, Config{Workers: 4}).RunAsync(context.Background(),
		func(int) congest.Fiber { return &quiesceFiber{rounds: 8} }, 3); err != nil {
		t.Fatalf("Run: %v", err)
	}
	close(stop)
	<-done
	if peak > before+10 {
		t.Errorf("goroutine peak %d over baseline %d; the async engine must not spawn per-vertex goroutines", peak, before)
	}
}
