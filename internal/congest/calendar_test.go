package congest

import (
	"slices"
	"testing"

	"congestmst/internal/graph"
)

func TestCalendarOrdersAndDropsStale(t *testing.T) {
	var cal Calendar
	for i, r := range []int64{9, 3, 7, 3, 5, 1, 8} {
		cal.Schedule(TimerEntry{Round: r, ID: i})
	}
	stale := map[int]bool{5: true, 3: true} // rounds 1 and 3
	live := func(t TimerEntry) bool { return !stale[t.ID] }
	if got := cal.Next(live); got != 3 || held(&cal) != 6 {
		t.Fatalf("Next = %d with %d entries left, want 3 with the stale round-1 entry dropped", got, held(&cal))
	}
	var rounds []int64
	var ids []int
	cal.Release(7, live, func(t TimerEntry) {
		rounds = append(rounds, t.Round)
		ids = append(ids, t.ID)
	})
	if !slices.Equal(rounds, []int64{3, 5, 7}) || !slices.Equal(ids, []int{1, 4, 2}) {
		t.Fatalf("Release(7) = rounds %v ids %v, want [3 5 7] [1 4 2]", rounds, ids)
	}
	if got := cal.Next(live); got != 8 {
		t.Fatalf("Next = %d, want 8", got)
	}
	cal.Release(Forever, func(TimerEntry) bool { return false }, func(TimerEntry) {
		t.Fatal("released a dead entry")
	})
	if got := cal.Next(live); got != Forever || held(&cal) != 0 {
		t.Fatalf("drained calendar: Next = %d with %d entries left", got, held(&cal))
	}
}

// held counts the entries a calendar still holds.
func held(cal *Calendar) int {
	n := 0
	for _, b := range cal.buckets {
		n += len(b.items) - b.head
	}
	return n
}

// A deadline's bucket keeps a cursor past the stale prefix Next
// dropped, so a second Next checks only the live entry it stopped at.
func TestCalendarNextPassesStalePrefixOnce(t *testing.T) {
	var cal Calendar
	for i := 0; i < 1000; i++ {
		cal.Schedule(TimerEntry{Round: 5, ID: i})
	}
	checks := 0
	live := func(t TimerEntry) bool {
		checks++
		return t.ID == 999
	}
	for range 2 {
		if got := cal.Next(live); got != 5 {
			t.Fatalf("Next = %d, want 5", got)
		}
	}
	if checks > 1001 {
		t.Errorf("two Next calls ran the live check %d times over 999 stale entries and 1 live, want at most 1001", checks)
	}
	if held(&cal) != 1 {
		t.Errorf("%d entries left, want the live one", held(&cal))
	}
}

func TestWindowDispatchesThenContinues(t *testing.T) {
	// Vertex 0 sends in rounds 0, 1 and 3; vertex 1 drains a window
	// ending at round 3 and then reads round 3's message as an Await.
	var handled, late []int64
	var thenRound int64 = -1
	stats, err := run(pair(t), Config{}, func(c Context) Step {
		if c.ID() == 0 {
			c.Send(0, Message{Kind: 1, A: 0})
			return nextRound(c, func(c Context, _ []Inbound) Step {
				c.Send(0, Message{Kind: 1, A: 1})
				return Until(3, func(c Context, _ []Inbound) Step {
					c.Send(0, Message{Kind: 1, A: 3})
					return Done()
				})
			})
		}
		return Window(c, 3, func(c Context, in Inbound) {
			handled = append(handled, in.Msg.A)
		}, func(c Context) Step {
			thenRound = c.Round()
			// A window already over continues at once.
			return Window(c, c.Round(), func(Context, Inbound) {
				t.Error("handler of an empty window ran")
			}, func(c Context) Step {
				return Await(func(c Context, msgs []Inbound) Step {
					for _, in := range msgs {
						late = append(late, in.Msg.A)
					}
					return Done()
				})
			})
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !slices.Equal(handled, []int64{0, 1}) || thenRound != 3 || !slices.Equal(late, []int64{3}) {
		t.Fatalf("handled %v, then at round %d, late %v; want [0 1], 3, [3]", handled, thenRound, late)
	}
	if stats.Rounds != 4 || stats.Messages != 3 {
		t.Fatalf("stats = %d rounds, %d messages; want 4, 3", stats.Rounds, stats.Messages)
	}
}

// stubCtx is a Context with nothing behind it: the round is set by the
// caller, and sends are dropped.
type stubCtx struct{ round int64 }

func (c *stubCtx) ID() int           { return 0 }
func (c *stubCtx) Degree() int       { return 1 }
func (c *stubCtx) Weight(int) int64  { return 0 }
func (c *stubCtx) Round() int64      { return c.round }
func (c *stubCtx) Bandwidth() int    { return 1 }
func (c *stubCtx) Send(int, Message) {}

// windowLoop returns a StepFiber running back-to-back windows of
// length h whose handler and continuation are built once, and the
// count of messages the handler has seen.
func windowLoop(h int64) (Fiber, *int) {
	seen := new(int)
	handle := func(c Context, in Inbound) { *seen++ }
	var next func(c Context) Step
	next = func(c Context) Step { return Window(c, c.Round()+h, handle, next) }
	return StepFiberFactory(1, next)(0), seen
}

// calendarCycle files one live and one stale entry, fast-forwards the
// clock to the live one and releases it: one idle stretch of a round
// loop.
func calendarCycle(c *Clock, cal *Calendar, live func(TimerEntry) bool, release func(TimerEntry)) error {
	now := c.Now()
	cal.Schedule(TimerEntry{Round: now + 2, ID: 1, Gen: -1})
	cal.Schedule(TimerEntry{Round: now + 5, ID: 2, Gen: now})
	if err := c.Advance(cal.Next(live)); err != nil {
		return err
	}
	cal.Release(c.Now(), live, release)
	return nil
}

// BenchmarkCalendar times one calendarCycle per op over a standing
// backlog of 64 entries on one far deadline.
func BenchmarkCalendar(b *testing.B) {
	b.ReportAllocs()
	c, cal := NewClock(Forever-1), &Calendar{}
	for i := 0; i < 64; i++ {
		cal.Schedule(TimerEntry{Round: Forever - 1, ID: 3})
	}
	live := func(t TimerEntry) bool { return t.Gen >= 0 }
	released := 0
	release := func(TimerEntry) { released++ }
	for i := 0; i < b.N; i++ {
		if err := calendarCycle(c, cal, live, release); err != nil {
			b.Fatal(err)
		}
	}
	if released != b.N {
		b.Fatalf("released %d entries in %d cycles", released, b.N)
	}
}

// BenchmarkCalendarSharedDeadline times the calendar traffic of an
// Elkin run, where whole fragments park until one shared round: per
// op, 1,024 entries filed on one deadline in ascending id order, every
// fifth stale, then Next and the Release of that deadline.
func BenchmarkCalendarSharedDeadline(b *testing.B) {
	b.ReportAllocs()
	var cal Calendar
	live := func(t TimerEntry) bool { return t.Gen >= 0 }
	released := 0
	release := func(TimerEntry) { released++ }
	for i := 0; i < b.N; i++ {
		round := int64(i + 1)
		for id := 0; id < 1024; id++ {
			gen := round
			if id%5 == 0 {
				gen = -1
			}
			cal.Schedule(TimerEntry{Round: round, ID: id, Gen: gen})
		}
		if got := cal.Next(live); got != round {
			b.Fatalf("Next = %d, want %d", got, round)
		}
		cal.Release(round, live, release)
	}
	if want := b.N * (1024 - 205); released != want {
		b.Fatalf("released %d entries in %d ops, want %d", released, b.N, want)
	}
}

// BenchmarkStepWindow times one two-round window per op: a wake that
// re-parks inside it and the wake at its end that enters the next.
func BenchmarkStepWindow(b *testing.B) {
	b.ReportAllocs()
	f, seen := windowLoop(2)
	c := &stubCtx{}
	msgs := []Inbound{{Port: 0}}
	f.Start(c)
	for i := 0; i < b.N; i++ {
		c.round++
		f.Resume(c, msgs)
		c.round++
		f.Resume(c, msgs)
	}
	if *seen == 0 {
		b.Fatal("handler never ran")
	}
}

// floodFiber sends on every port and wakes again the next round,
// forever.
type floodFiber struct{}

func (floodFiber) Start(c Context) Park { return floodFiber{}.Resume(c, nil) }

func (floodFiber) Resume(c Context, _ []Inbound) Park {
	for p := 0; p < c.Degree(); p++ {
		c.Send(p, Message{Kind: 1, A: c.Round()})
	}
	return ParkUntil(c.Round() + 1)
}

// floodShard returns a Shard holding every vertex of a 12-vertex ring
// of floodFibers, and a function that plays its next round as the
// lockstep engine does: wake, play, deliver its own sends, advance.
// The shard has played round 0 (the warm-up) when it is returned.
func floodShard(tb testing.TB) (*Shard, func() error) {
	tb.Helper()
	g := graph.Ring(12, graph.GenOptions{Seed: 1})
	s := NewShard(g.CSR(), 0, g.N(), 1, func(err error) { tb.Fatal(err) })
	s.Load(func(int) Fiber { return floodFiber{} })
	c := NewClock(0)
	round := func() error {
		s.Wake(c.Now())
		s.Play(c.Now())
		s.Receive(&s.Out[0])
		s.Deliver()
		return c.Advance(s.Next(c.Now()))
	}
	if err := round(); err != nil {
		tb.Fatal(err)
	}
	return s, round
}

// BenchmarkShardRound times one round of floodShard per op: 12 fiber
// calls, 24 sends and their delivery.
func BenchmarkShardRound(b *testing.B) {
	b.ReportAllocs()
	_, round := floodShard(b)
	for i := 0; i < b.N; i++ {
		if err := round(); err != nil {
			b.Fatal(err)
		}
	}
}
