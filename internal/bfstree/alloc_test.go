package bfstree

import (
	"fmt"
	"testing"

	"congestmst/internal/congest"
)

// An operation on τ allocates nothing once the record's per-child
// buffers have grown: each call re-arms the vertex's Tree in place and
// parks on the Resume Build bound once. These gates hold that line for
// one cycle of each operation a Boruvka phase runs on τ, as fragops'
// tests do for the fragment-tree operations.

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

// record returns the Tree of a vertex at depth 1 of a τ of height 2:
// parent on port 0, one child on port 1, label 1 and the child's
// interval [2, 2].
func record() *Tree {
	t := &Tree{ParentPort: 0, ChildPorts: []int{1}, ChildSizes: []int64{1}, ChildIvs: [][2]int64{{2, 2}},
		Depth: 1, Size: 2, N: 3, Height: 2, Lo: 1, Hi: 2}
	t.wake = t.resume
	return t
}

// opLoop returns a fiber that runs back-to-back operations: run starts
// one, and the continuation that starts the next one is built once.
func opLoop(run func(c congest.Context, then func(c congest.Context) congest.Step) congest.Step) congest.Fiber {
	var next func(c congest.Context) congest.Step
	next = func(c congest.Context) congest.Step { return run(c, next) }
	return congest.StepFiberFactory(1, next)(0)
}

// wake advances the round by rounds, resumes f with in and checks its
// park.
func wake(f congest.Fiber, c *stubCtx, rounds int64, in []congest.Inbound, want congest.Park) error {
	c.round += rounds
	if p := f.Resume(c, in); p != want {
		return fmt.Errorf("round %d: parked %d, want %d", c.round, p, want)
	}
	return nil
}

// upcastLoop: the vertex offers one item of group 1 and its child
// streams a heavier one of the same group, which the per-group filter
// drops. An upcast waits for the child's stream; when the stream and
// its end marker arrive, the vertex forwards its own item, and a round
// later (bandwidth 1) it drops the child's and sends its end marker.
// The next upcast then waits for the child again.
func upcastLoop() (congest.Fiber, func(f congest.Fiber, c *stubCtx) error) {
	t := record()
	seen := make(map[int64]bool)
	up := Upcast{Kind: KindUp, Done: KindUpDone, Keep: func(it Item) bool {
		if seen[it.Group] {
			return false
		}
		seen[it.Group] = true
		return true
	}}
	own := []Item{{Group: 1, W: 1}}
	f := opLoop(func(c congest.Context, then func(c congest.Context) congest.Step) congest.Step {
		clear(seen)
		return t.PipelinedUpcast(c, up, own, then)
	})
	in := []congest.Inbound{
		{Port: 1, Msg: congest.Message{Kind: KindUp, A: 1, B: 2}},
		{Port: 1, Msg: congest.Message{Kind: KindUpDone}},
	}
	return f, func(f congest.Fiber, c *stubCtx) error {
		if err := wake(f, c, 1, in, congest.ParkUntil(c.round+2)); err != nil { // the round after the wake
			return err
		}
		return wake(f, c, 1, nil, congest.ParkAwait)
	}
}

// routeLoop: each downcast brings a pair for the child, one for the
// vertex itself and the end marker. The vertex forwards the child's
// pair, then the marker a round later (bandwidth 1), and ends with
// everyone at the marker's round.
func routeLoop() (congest.Fiber, func(f congest.Fiber, c *stubCtx) error) {
	t := record()
	f := opLoop(func(c congest.Context, then func(c congest.Context) congest.Step) congest.Step {
		if c.Round() > 0 && len(t.Mine) != 1 {
			panic(fmt.Sprintf("downcast left %d pairs here, want 1", len(t.Mine)))
		}
		return t.RouteDown(c, nil, then)
	})
	in := []congest.Inbound{
		{Port: 0, Msg: congest.Message{Kind: KindRoute, A: 2, B: 5}},
		{Port: 0, Msg: congest.Message{Kind: KindRoute, A: 1, B: 6}},
		{Port: 0, Msg: congest.Message{Kind: KindRouteFlush}},
	}
	return f, func(f congest.Fiber, c *stubCtx) error {
		end := c.round + 4
		in[2].Msg.A = end
		if err := wake(f, c, 1, in, congest.ParkUntil(c.round+2)); err != nil { // the round after the wake
			return err
		}
		if err := wake(f, c, 1, nil, congest.ParkUntil(end)); err != nil {
			return err
		}
		return wake(f, c, 2, nil, congest.ParkAwait)
	}
}

// broadcastLoop: each broadcast arrives a round after the root sent
// it; the vertex relays it to its child and waits for the aligned end,
// Height+1 rounds after the root's send.
func broadcastLoop() (congest.Fiber, func(f congest.Fiber, c *stubCtx) error) {
	t := record()
	f := opLoop(func(c congest.Context, then func(c congest.Context) congest.Step) congest.Step {
		return t.SyncBroadcast(c, [3]int64{}, then)
	})
	in := []congest.Inbound{{Port: 0, Msg: congest.Message{Kind: KindBcast, A: 7}}}
	return f, func(f congest.Fiber, c *stubCtx) error {
		in[0].Msg.D = c.round
		if err := wake(f, c, 1, in, congest.ParkUntil(c.round+3)); err != nil {
			return err
		}
		return wake(f, c, 2, nil, congest.ParkAwait)
	}
}

func testAllocatesNothing(t *testing.T, name string, f congest.Fiber, cycle func(f congest.Fiber, c *stubCtx) error, sends int) {
	t.Helper()
	c := &stubCtx{}
	f.Start(c)
	base := c.sent
	var err error
	allocs := testing.AllocsPerRun(1000, func() {
		if err == nil {
			err = cycle(f, c)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("%s on a re-armed record: %v allocations per cycle, want 0", name, allocs)
	}
	if got := c.sent - base; got != 1001*sends {
		t.Errorf("%s: %d sends in 1001 cycles, want %d each", name, got, sends)
	}
}

func TestPipelinedUpcastAllocatesNothing(t *testing.T) {
	f, cycle := upcastLoop()
	testAllocatesNothing(t, "pipelined upcast", f, cycle, 2)
}

func TestRouteDownAllocatesNothing(t *testing.T) {
	f, cycle := routeLoop()
	testAllocatesNothing(t, "routed downcast", f, cycle, 2)
}

func TestSyncBroadcastAllocatesNothing(t *testing.T) {
	f, cycle := broadcastLoop()
	testAllocatesNothing(t, "sync broadcast", f, cycle, 1)
}

func benchCycle(b *testing.B, loop func() (congest.Fiber, func(f congest.Fiber, c *stubCtx) error)) {
	b.ReportAllocs()
	f, cycle := loop()
	c := &stubCtx{}
	f.Start(c)
	for i := 0; i < b.N; i++ {
		if err := cycle(f, c); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelinedUpcast times one upcast cycle per op: the child's
// stream and marker, the merge with the own item, the filter, the
// marker to the parent and the re-arm.
func BenchmarkPipelinedUpcast(b *testing.B) { benchCycle(b, upcastLoop) }

// BenchmarkRouteDown times one routed-downcast cycle per op: two pairs
// and the marker from the parent, the route to the child, the forward
// of the marker, the aligned end and the re-arm.
func BenchmarkRouteDown(b *testing.B) { benchCycle(b, routeLoop) }
