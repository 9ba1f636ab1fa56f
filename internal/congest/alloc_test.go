package congest

import "testing"

// A park allocates nothing: the calendar is a typed heap, and a Window
// keeps its handlers in the StepFiber instead of a fresh closure per
// window. These gates hold that line.

func TestCalendarAllocatesNothing(t *testing.T) {
	c := NewClock(Forever - 1)
	live := func(t TimerEntry) bool { return t.Gen >= 0 }
	released := 0
	release := func(TimerEntry) { released++ }
	allocs := testing.AllocsPerRun(1000, func() {
		if err := calendarCycle(c, live, release); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("schedule + fast-forward + release: %v allocations per cycle, want 0", allocs)
	}
	if released != 1001 || len(c.items) != 0 {
		t.Errorf("released %d entries in 1001 cycles, %d left filed", released, len(c.items))
	}
}

func TestStepWindowAllocatesNothing(t *testing.T) {
	f, seen := windowLoop(2)
	c := &stubCtx{}
	msgs := []Inbound{{Port: 0}}
	if p := f.Start(c); p != ParkUntil(2) {
		t.Fatalf("Start parked %d, want the window end 2", p)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		end := c.round + 2
		// A wake inside the window re-parks to its end; the wake at
		// the end runs the continuation, which enters the next window.
		for _, want := range []Park{ParkUntil(end), ParkUntil(end + 2)} {
			c.round++
			if p := f.Resume(c, msgs); p != want {
				t.Fatalf("round %d: parked %d, want %d", c.round, p, want)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("window re-park and entry: %v allocations per window, want 0", allocs)
	}
	if *seen != 2002 {
		t.Errorf("handler saw %d messages in 2002 wakes", *seen)
	}
}
