// Fixture for the fiberpark analyzer: code reachable from fiber /
// step-form shapes (a congest.Context parameter plus a congest.Step
// or congest.Park result) must never block. congest.Context has no
// blocking method, so the compiler rejects waiting through it; the
// violating shapes below sneak a raw channel operation into a Fiber,
// a continuation, or a helper a root passes its Context to, which
// would stall the engine worker calling the fiber.
package fiberpark

import (
	"congestmst/internal/congest"
)

// chanFiber is a Fiber whose Resume waits on a channel instead of
// returning a park.
type chanFiber struct {
	ready chan int
}

func (f *chanFiber) Start(c congest.Context) congest.Park {
	c.Send(0, congest.Message{Kind: 1})
	return congest.ParkUntil(c.Round() + 1)
}

func (f *chanFiber) Resume(c congest.Context, msgs []congest.Inbound) congest.Park {
	v := <-f.ready // want "channel receive"
	_ = v
	return congest.ParkDone
}

// blockingContinuation blocks inside a Step-form continuation.
func blockingContinuation(c congest.Context, done chan struct{}) congest.Step {
	return congest.Await(func(c congest.Context, msgs []congest.Inbound) congest.Step {
		done <- struct{}{} // want "channel send"
		return congest.Done()
	})
}

// selectInStepForm waits in a select statement.
func selectInStepForm(c congest.Context) congest.Step {
	select { // want "select statement"
	default:
	}
	return congest.Done()
}

// helperReached blocks inside a plain helper that a step-form root
// passes its Context to — reachability must follow the call.
func helperReached(c congest.Context, ch chan congest.Inbound) congest.Inbound {
	return <-ch // want "channel receive"
}

func rootCallingHelper(c congest.Context) congest.Step {
	in := helperReached(c, make(chan congest.Inbound))
	_ = in
	return congest.Done()
}

// chainedHelper is reached two calls deep from a root, through
// helperChain — the walk must follow calls transitively.
func chainedHelper(c congest.Context, ch chan int) {
	ch <- c.ID() // want "channel send"
}

func helperChain(c congest.Context, ch chan int) {
	chainedHelper(c, ch)
}

func rootCallingChain(c congest.Context) congest.Step {
	helperChain(c, make(chan int, 1))
	return congest.Done()
}

// channelFiber parks on a channel instead of the calendar.
func channelFiber(c congest.Context, ch chan int) congest.Step {
	ch <- 1   // want "channel send"
	v := <-ch // want "channel receive"
	_ = v
	return congest.Done()
}

// allowedSignal is an explicitly allowed channel op on a fiber path.
func allowedSignal(c congest.Context, ch chan int) congest.Step {
	ch <- 1 //lint:allow fiberpark buffered signal that never blocks
	return congest.Done()
}

// conforming is the legal shape: all waiting is expressed as parks.
func conforming(c congest.Context) congest.Step {
	end := c.Round() + 4
	return congest.Until(end, func(c congest.Context, msgs []congest.Inbound) congest.Step {
		for _, in := range msgs {
			c.Send(in.Port, in.Msg)
		}
		if c.Round() < end {
			return congest.Until(end, func(c congest.Context, _ []congest.Inbound) congest.Step {
				return congest.Done()
			})
		}
		return congest.Done()
	})
}

// quiesceConforming is the legal quiesce-park shape.
func quiesceConforming(c congest.Context) congest.Step {
	start := c.Round()
	return congest.Quiesce(func(c congest.Context, msgs []congest.Inbound) congest.Step {
		for _, in := range msgs {
			c.Send(in.Port, in.Msg)
		}
		_ = start
		return congest.Done()
	})
}

// unreachedHelper is NOT step-form and is never called from a root:
// code outside fiber reach may use channels freely.
func unreachedHelper(c congest.Context, ch chan int) int {
	return <-ch
}
