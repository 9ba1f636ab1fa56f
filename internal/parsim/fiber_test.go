package parsim

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"congestmst/internal/congest"
	"congestmst/internal/graph"
)

// floodFiber is floodProgram written as a hand-rolled state machine:
// each iteration splits into a pre-park half (maybe send) and a
// post-park half (maybe fold the deliveries into best).
type floodFiber struct {
	rounds int
	best   int64
	r      int
	skip   bool
}

func (f *floodFiber) Start(c congest.Context) congest.Park {
	f.best = int64(c.ID())
	return f.begin(c)
}

// begin plays the pre-park half of iteration f.r.
func (f *floodFiber) begin(c congest.Context) congest.Park {
	f.skip = f.best%2 == 0 && f.r%3 == 2
	if !f.skip {
		for p := 0; p < c.Degree(); p++ {
			c.Send(p, congest.Message{Kind: byte(p % 5), A: f.best})
		}
	}
	return congest.ParkUntil(c.Round() + 1)
}

func (f *floodFiber) Resume(c congest.Context, msgs []congest.Inbound) congest.Park {
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

// TestFiberStatsMatchLockstep: a hand-written Fiber must report
// bit-identical Rounds, Messages and ByKind to the same program in Step
// form on the lockstep engine — including when the round width crosses
// the inline/parallel threshold and for every worker count.
func TestFiberStatsMatchLockstep(t *testing.T) {
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
			got, err := NewEngine(g, Config{Workers: workers}).RunContext(context.Background(),
				func(int) congest.Fiber { return &floodFiber{rounds: 12} })
			if err != nil {
				t.Fatalf("fiber n=%d workers=%d: %v", sz.n, workers, err)
			}
			if *got != *ref {
				t.Errorf("n=%d workers=%d: fiber stats differ from lockstep:\nfiber:    %+v\nlockstep: %+v",
					sz.n, workers, got, ref)
			}
		}
	}
}

// parkFiber parks once with a fixed target and records the round it
// resumed in.
type parkFiber struct {
	target  int64
	sendTo  int // port to message after waking, -1 for none
	wokeAt  *int64
	gotMsgs *[]congest.Inbound
}

func (f *parkFiber) Start(c congest.Context) congest.Park {
	if f.target == congest.Forever {
		return congest.ParkAwait
	}
	return congest.ParkUntil(f.target)
}

func (f *parkFiber) Resume(c congest.Context, msgs []congest.Inbound) congest.Park {
	if f.wokeAt != nil {
		*f.wokeAt = c.Round()
	}
	if f.gotMsgs != nil {
		*f.gotMsgs = msgs
	}
	if f.sendTo >= 0 {
		c.Send(f.sendTo, congest.Message{A: 9})
		f.sendTo = -1
		return congest.ParkUntil(c.Round() + 1)
	}
	return congest.ParkDone
}

// TestFiberFastForward: a million-round park costs heap pops, not
// rounds.
func TestFiberFastForward(t *testing.T) {
	g := pair(t)
	var woke0, woke1 int64
	start := time.Now()
	stats, err := NewEngine(g, Config{}).RunContext(context.Background(),
		func(id int) congest.Fiber {
			woke := &woke0
			if id == 1 {
				woke = &woke1
			}
			return &parkFiber{target: 1_000_000, sendTo: -1, wokeAt: woke}
		})
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

// TestFiberWokenEarly: a delivery wakes a deadline-parked fiber before
// its target.
func TestFiberWokenEarly(t *testing.T) {
	g := pair(t)
	var woke int64
	var got []congest.Inbound
	_, err := NewEngine(g, Config{}).RunContext(context.Background(),
		func(id int) congest.Fiber {
			if id == 0 {
				return &parkFiber{target: 3, sendTo: 0}
			}
			return &parkFiber{target: 100, sendTo: -1, wokeAt: &woke, gotMsgs: &got}
		})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if woke != 4 {
		t.Errorf("woken at round %d, want 4", woke)
	}
	if len(got) != 1 || got[0].Msg.A != 9 {
		t.Errorf("got %v, want the A=9 message", got)
	}
}

// stepperFiber parks for the next round forever; used to cancel runs.
type stepperFiber struct{}

func (stepperFiber) Start(c congest.Context) congest.Park {
	return congest.ParkUntil(c.Round() + 1)
}

func (stepperFiber) Resume(c congest.Context, msgs []congest.Inbound) congest.Park {
	return congest.ParkUntil(c.Round() + 1)
}

// TestFiberRunContextCancel cancels an endlessly stepping fiber run:
// the engine must return promptly with an error wrapping
// context.Canceled and leave zero vertex state live (nodes, fibers and
// calendar all released for collection).
func TestFiberRunContextCancel(t *testing.T) {
	g := path3(t)
	baseline := runtime.NumGoroutine()
	e := NewEngine(g, Config{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errCh := make(chan error, 1)
	go func() {
		_, err := e.RunContext(ctx, func(int) congest.Fiber { return stepperFiber{} })
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
		t.Fatal("cancelled fiber engine did not return")
	}
	if e.shards != nil {
		t.Error("cancelled fiber run left vertex state live")
	}
	awaitGoroutines(t, baseline)
}

// TestFiberRunContextDeadline: an expiring deadline surfaces as
// context.DeadlineExceeded with no state left behind.
func TestFiberRunContextDeadline(t *testing.T) {
	g := path3(t)
	baseline := runtime.NumGoroutine()
	e := NewEngine(g, Config{Workers: 2})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := e.RunContext(ctx, func(int) congest.Fiber { return stepperFiber{} })
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("error %v does not wrap context.DeadlineExceeded", err)
	}
	if e.shards != nil {
		t.Error("deadline-expired fiber run left vertex state live")
	}
	awaitGoroutines(t, baseline)
}

// TestFiberRunContextPreCancelled: a dead context stops the run before
// a single fiber starts.
func TestFiberRunContextPreCancelled(t *testing.T) {
	g := path3(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	started := false
	_, err := NewEngine(g, Config{}).RunContext(ctx, func(int) congest.Fiber {
		started = true
		return stepperFiber{}
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not wrap context.Canceled", err)
	}
	if started {
		t.Error("pre-cancelled run constructed fibers")
	}
}

// TestFiberBlockingCallRejected: a fiber cannot block. The Context it
// is handed offers no method that waits for messages (none returns
// deliveries), so the only way to wait is to return a Park.
func TestFiberBlockingCallRejected(t *testing.T) {
	requireNoReceive(t, func(f congest.Fiber) error {
		_, err := NewEngine(pair(t), Config{}).RunContext(context.Background(),
			func(int) congest.Fiber { return f })
		return err
	})
}

// requireNoReceive runs a fiber under run and fails if the Context it
// was handed has any method returning []congest.Inbound.
func requireNoReceive(t *testing.T, run func(congest.Fiber) error) {
	t.Helper()
	var ctxType reflect.Type
	f := &probeFiber{seen: func(c congest.Context) { ctxType = reflect.TypeOf(c) }}
	if err := run(f); err != nil {
		t.Fatalf("Run: %v", err)
	}
	inbound := reflect.TypeOf([]congest.Inbound(nil))
	for i := 0; i < ctxType.NumMethod(); i++ {
		m := ctxType.Method(i)
		for o := 0; o < m.Type.NumOut(); o++ {
			if m.Type.Out(o) == inbound {
				t.Errorf("%v.%s returns deliveries: fibers must park by returning", ctxType, m.Name)
			}
		}
	}
}

// probeFiber hands the Context of its Start call to seen and retires.
type probeFiber struct{ seen func(congest.Context) }

func (f *probeFiber) Start(c congest.Context) congest.Park {
	f.seen(c)
	return congest.ParkDone
}

func (f *probeFiber) Resume(c congest.Context, msgs []congest.Inbound) congest.Park {
	return congest.ParkDone
}

// overSendFiber violates CONGEST bandwidth from fiber code.
type overSendFiber struct{}

func (overSendFiber) Start(c congest.Context) congest.Park {
	c.Send(0, congest.Message{})
	c.Send(0, congest.Message{}) // second message on the same port, b=1
	return congest.ParkDone
}

func (overSendFiber) Resume(c congest.Context, msgs []congest.Inbound) congest.Park {
	return congest.ParkDone
}

func TestFiberBandwidthViolation(t *testing.T) {
	g := pair(t)
	_, err := NewEngine(g, Config{Bandwidth: 1}).RunContext(context.Background(),
		func(id int) congest.Fiber {
			if id == 0 {
				return overSendFiber{}
			}
			return stepperFiber{}
		})
	if !errors.Is(err, congest.ErrBandwidth) {
		t.Fatalf("err = %v, want ErrBandwidth", err)
	}
}

// panicFiber panics in Resume.
type panicFiber struct{}

func (panicFiber) Start(c congest.Context) congest.Park {
	return congest.ParkUntil(c.Round() + 1)
}

func (panicFiber) Resume(c congest.Context, msgs []congest.Inbound) congest.Park {
	panic("boom")
}

func TestFiberPanicReported(t *testing.T) {
	g := path3(t)
	_, err := NewEngine(g, Config{}).RunContext(context.Background(),
		func(id int) congest.Fiber {
			if id == 1 {
				return panicFiber{}
			}
			return stepperFiber{}
		})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("err = %v, want panic report", err)
	}
}

// badParkFiber parks for the current round, which can never run.
type badParkFiber struct{}

func (badParkFiber) Start(c congest.Context) congest.Park {
	return congest.ParkUntil(c.Round())
}

func (badParkFiber) Resume(c congest.Context, msgs []congest.Inbound) congest.Park {
	return congest.ParkDone
}

func TestFiberInvalidParkRejected(t *testing.T) {
	g := pair(t)
	_, err := NewEngine(g, Config{}).RunContext(context.Background(),
		func(int) congest.Fiber { return badParkFiber{} })
	if err == nil || !strings.Contains(err.Error(), "parked") {
		t.Fatalf("err = %v, want invalid-park rejection", err)
	}
}

// TestFiberEngineSingleUse: the fiber entry point shares the
// single-use contract.
func TestFiberEngineSingleUse(t *testing.T) {
	g := pair(t)
	e := NewEngine(g, Config{})
	factory := func(int) congest.Fiber { return &floodFiber{rounds: 1} }
	if _, err := e.RunContext(context.Background(), factory); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if _, err := e.RunContext(context.Background(), factory); !errors.Is(err, congest.ErrReused) {
		t.Fatalf("second run err = %v, want ErrReused", err)
	}
}

// TestFiberDeadlock: every fiber awaiting with no messages in flight
// is the same deadlock every engine reports.
func TestFiberDeadlock(t *testing.T) {
	g := pair(t)
	_, err := NewEngine(g, Config{}).RunContext(context.Background(),
		func(int) congest.Fiber { return &parkFiber{target: congest.Forever, sendTo: -1} })
	if !errors.Is(err, congest.ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

// TestFiberNoGoroutineGrowth: a run spawns only the worker pool, never
// per-vertex goroutines, whatever the graph size.
func TestFiberNoGoroutineGrowth(t *testing.T) {
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
	if _, err := NewEngine(g, Config{Workers: 4}).RunContext(context.Background(),
		func(int) congest.Fiber { return &floodFiber{rounds: 8} }); err != nil {
		t.Fatalf("Run: %v", err)
	}
	close(stop)
	<-done
	// Workers (4) plus the sampler plus slack; 3000 vertex goroutines
	// would blow straight through this.
	if peak > before+10 {
		t.Errorf("goroutine peak %d over baseline %d; the engine must not spawn per-vertex goroutines", peak, before)
	}
}
