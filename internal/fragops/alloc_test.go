package fragops

import (
	"fmt"
	"testing"

	"congestmst/internal/congest"
)

// A tree operation allocates nothing: each call re-arms the vertex's
// Tree record in place, and the window handler and finish step are
// method values NewTree bound once. These gates hold that line for a
// convergecast and a broadcast, the two operations a Controlled-GHS
// phase runs most, as congest's TestStepWindowAllocatesNothing does for
// a bare window.

// stubCtx is a Context with nothing behind it: the round is set by the
// caller, and sends are counted and dropped.
type stubCtx struct {
	round int64
	sent  int
}

func (c *stubCtx) ID() int                   { return 0 }
func (c *stubCtx) Degree() int               { return 2 }
func (c *stubCtx) Weight(int) int64          { return 0 }
func (c *stubCtx) Round() int64              { return c.round }
func (c *stubCtx) Bandwidth() int            { return 1 }
func (c *stubCtx) Send(int, congest.Message) { c.sent++ }

// opLoop returns a fiber that runs back-to-back operations of two
// rounds each: run starts one on the record, and the continuation that
// starts the next one is built once.
func opLoop(run func(c congest.Context, then func(c congest.Context) congest.Step) congest.Step) congest.Fiber {
	var next func(c congest.Context) congest.Step
	next = func(c congest.Context) congest.Step { return run(c, next) }
	return congest.StepFiberFactory(1, next)(0)
}

// convergeLoop: a vertex below parent port 1 with one child on port 0
// measures its subtree over and over.
func convergeLoop() congest.Fiber {
	t := NewTree(1, []int{0})
	return opLoop(func(c congest.Context, then func(c congest.Context) congest.Step) congest.Step {
		return t.Converge(c, c.Round()+2, true, [3]int64{1, 0, 0}, SizeHeight, then)
	})
}

// broadcastLoop: a vertex below parent port 0 with one child on port 1
// relays a broadcast over and over.
func broadcastLoop() congest.Fiber {
	t := NewTree(0, []int{1})
	return opLoop(func(c congest.Context, then func(c congest.Context) congest.Step) congest.Step {
		return t.Broadcast(c, c.Round()+2, true, [3]int64{}, then)
	})
}

var (
	childReport = []congest.Inbound{{Port: 0, Msg: congest.Message{Kind: KindConv, A: 3, B: 1}}}
	parentCast  = []congest.Inbound{{Port: 0, Msg: congest.Message{Kind: KindBcast, A: 7}}}
)

// cycle plays one operation: the wake inside the window delivers in
// and re-parks to the end, and the wake at the end finishes the
// operation and re-arms the record for the next one.
func cycle(f congest.Fiber, c *stubCtx, in []congest.Inbound) error {
	end := c.round + 2
	c.round++
	if p := f.Resume(c, in); p != congest.ParkUntil(end) {
		return fmt.Errorf("round %d: parked %d inside the window, want its end %d", c.round, p, end)
	}
	c.round++
	if p := f.Resume(c, nil); p != congest.ParkUntil(end+2) {
		return fmt.Errorf("round %d: parked %d at the window end, want the next end %d", c.round, p, end+2)
	}
	return nil
}

func testAllocatesNothing(t *testing.T, f congest.Fiber, in []congest.Inbound, name string) {
	t.Helper()
	c := &stubCtx{}
	if p := f.Start(c); p != congest.ParkUntil(2) {
		t.Fatalf("Start parked %d, want the window end 2", p)
	}
	var err error
	allocs := testing.AllocsPerRun(1000, func() {
		if err == nil {
			err = cycle(f, c, in)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("%s on a re-armed record: %v allocations per cycle, want 0", name, allocs)
	}
	if c.sent != 1001 {
		t.Errorf("%s: %d sends in 1001 cycles, want one each", name, c.sent)
	}
}

func TestConvergecastAllocatesNothing(t *testing.T) {
	testAllocatesNothing(t, convergeLoop(), childReport, "convergecast")
}

func TestBroadcastAllocatesNothing(t *testing.T) {
	testAllocatesNothing(t, broadcastLoop(), parentCast, "broadcast")
}

func benchCycle(b *testing.B, f congest.Fiber, in []congest.Inbound) {
	b.ReportAllocs()
	c := &stubCtx{}
	f.Start(c)
	for i := 0; i < b.N; i++ {
		if err := cycle(f, c, in); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkConvergecast times one convergecast cycle per op: a child's
// report, the send to the parent, the finish check and the re-arm.
func BenchmarkConvergecast(b *testing.B) { benchCycle(b, convergeLoop(), childReport) }

// BenchmarkBroadcast times one broadcast cycle per op: the parent's
// payload, the relay to the child, the finish check and the re-arm.
func BenchmarkBroadcast(b *testing.B) { benchCycle(b, broadcastLoop(), parentCast) }
