package congest

import "testing"

// A park allocates nothing: the calendar reuses its buckets' arrays,
// and a Window keeps its handlers in the StepFiber instead of a fresh
// closure per window. These gates hold that line.

func TestCalendarAllocatesNothing(t *testing.T) {
	c, cal := NewClock(Forever-1), &Calendar{}
	live := func(t TimerEntry) bool { return t.Gen >= 0 }
	released := 0
	release := func(TimerEntry) { released++ }
	allocs := testing.AllocsPerRun(1000, func() {
		if err := calendarCycle(c, cal, live, release); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("schedule + fast-forward + release: %v allocations per cycle, want 0", allocs)
	}
	if released != 1001 || held(cal) != 0 {
		t.Errorf("released %d entries in 1001 cycles, %d left filed", released, held(cal))
	}
}

// TestShardRoundAllocatesNothing plays whole rounds of a Shard whose
// fibers send on every port every round: after one warm-up round has
// grown the rows and the arena, a round and the delivery of its sends
// allocate nothing.
func TestShardRoundAllocatesNothing(t *testing.T) {
	s, round := floodShard(t)
	allocs := testing.AllocsPerRun(100, func() {
		if err := round(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("wake + play + deliver: %v allocations per round, want 0", allocs)
	}
	if want := int64(102 * 2 * 12); s.Messages != want {
		t.Errorf("delivered %d messages in 102 rounds, want %d", s.Messages, want)
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
