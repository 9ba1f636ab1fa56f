package congest

import (
	"slices"
	"testing"

	"congestmst/internal/graph"
)

// scripted is a Fiber that logs each call and parks as plan says for
// its vertex and round: ParkAwait at round 0 and ParkDone later unless
// the plan says otherwise.
type scripted struct {
	plan  map[int64]map[int]Park
	calls *[]int
}

func (f scripted) Start(c Context) Park { return f.Resume(c, nil) }

func (f scripted) Resume(c Context, _ []Inbound) Park {
	*f.calls = append(*f.calls, c.ID())
	if p, ok := f.plan[c.Round()][c.ID()]; ok {
		return p
	}
	if c.Round() == 0 {
		return ParkAwait
	}
	return ParkDone
}

// TestShardWakesInAscendingOrder builds wake sets from mail,
// next-round parks and calendar releases that arrive out of vertex
// order: the calendar's deadline-4 and deadline-5 entries are filed
// over three rounds in descending id order, and round 3's mail reaches
// 9, 8 and 3 in that order. Vertex 3 is due at round 4 through both
// its mail and its calendar entry. Every round must call its vertices
// once each, in ascending order, and Wake must count exactly them.
func TestShardWakesInAscendingOrder(t *testing.T) {
	plan := map[int64]map[int]Park{
		0: {11: ParkUntil(4), 10: ParkUntil(5), 7: ParkUntil(1), 6: ParkUntil(1),
			5: ParkUntil(3), 1: ParkUntil(3), 3: ParkUntil(2), 2: ParkUntil(2)},
		1: {7: ParkUntil(4), 6: ParkUntil(5)},
		2: {3: ParkUntil(4), 2: ParkUntil(5)},
		3: {5: ParkUntil(4), 1: ParkUntil(4)},
	}
	want := map[int64][]int{
		0: {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
		1: {6, 7},
		2: {2, 3},
		3: {1, 5},
		4: {1, 3, 5, 7, 8, 9, 11},
		5: {2, 6, 10},
	}
	g := graph.Ring(12, graph.GenOptions{Seed: 1})
	s := NewShard(g.CSR(), 0, g.N(), 1, func(err error) { t.Fatal(err) })
	var calls []int
	s.Load(func(int) Fiber { return scripted{plan: plan, calls: &calls} })
	c := NewClock(0)
	for played := 0; ; played++ {
		round := c.Now()
		calls = calls[:0]
		n := s.Wake(round)
		s.Play(round)
		if !slices.Equal(calls, want[round]) || n != len(calls) {
			t.Fatalf("round %d: Wake counted %d, calls %v; want calls %v", round, n, calls, want[round])
		}
		if round == 3 {
			mail := []Delivery{{To: 9, Msg: Message{Kind: 1}}, {To: 8, Msg: Message{Kind: 1}}, {To: 3, Msg: Message{Kind: 1}}}
			s.Receive(&mail)
		}
		s.Deliver()
		next := s.Next(round)
		if next == Forever {
			if played != len(want)-1 {
				t.Fatalf("no work left after round %d, want rounds %v", round, want)
			}
			return
		}
		if err := c.Advance(next); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWindowReparkKeepsItsEntry: a vertex in a Window to round 10 that
// mail wakes at rounds 1, 2 and 3 parks again each time to the deadline
// its calendar entry already holds. The calendar must keep that one
// entry, not file a second and strand the first, and the vertex must
// still wake exactly at round 10.
func TestWindowReparkKeepsItsEntry(t *testing.T) {
	g := graph.Path(2, graph.GenOptions{})
	s := NewShard(g.CSR(), 0, g.N(), 1, func(err error) { t.Fatal(err) })
	heard, woke := 0, []int64(nil)
	s.Load(StepFiberFactory(g.N(), func(c Context) Step {
		if c.ID() == 1 {
			return Done()
		}
		return Window(c, 10, func(Context, Inbound) { heard++ }, func(c Context) Step {
			woke = append(woke, c.Round())
			return Done()
		})
	}))
	c := NewClock(0)
	for {
		round := c.Now()
		s.Wake(round)
		s.Play(round)
		if round < 3 {
			mail := []Delivery{{To: 0, Msg: Message{Kind: 1}}}
			s.Receive(&mail)
		}
		s.Deliver()
		entries := 0
		for _, b := range s.cal.buckets {
			entries += len(b.items) - b.head
		}
		if want := min(1, 10-int(round)); entries != want {
			t.Fatalf("round %d: %d calendar entries, want %d", round, entries, want)
		}
		next := s.Next(round)
		if next == Forever {
			break
		}
		if err := c.Advance(next); err != nil {
			t.Fatal(err)
		}
	}
	if heard != 3 || !slices.Equal(woke, []int64{10}) {
		t.Errorf("heard %d messages and ended the window at rounds %v, want 3 and [10]", heard, woke)
	}
}

// drain yields the set in ascending order across words and summary
// words, and an early stop leaves exactly the members not yet yielded.
func TestWakeSetDrainStopsEarly(t *testing.T) {
	members := []int{100, 101, 163, 164, 4195, 4196, 9000}
	w := newWakeSet(100, 9100)
	for _, v := range slices.Backward(members) {
		w.add(v)
	}
	if w.add(4195); w.n != len(members) {
		t.Fatalf("%d members counted, want %d", w.n, len(members))
	}
	for stop := range members {
		var got []int
		for v := range w.drain {
			got = append(got, v)
			if len(got) == stop+1 {
				break
			}
		}
		for v := range w.drain {
			got = append(got, v)
		}
		if !slices.Equal(got, members) || w.n != 0 {
			t.Fatalf("stop after %d: yielded %v with %d left, want %v", stop+1, got, w.n, members)
		}
		for _, v := range members {
			w.add(v)
		}
	}
}

// TestShardReach files wakes one at a time and checks the send bound
// after each: due vertices count from round+1, calendar entries from
// their deadline, vertices with a negative distance never, and an entry
// whose vertex woke early and parked elsewhere (a stale entry) or
// retired no longer counts. The bound never falls below Next, and
// computing it allocates nothing.
func TestShardReach(t *testing.T) {
	g := graph.Path(8, graph.GenOptions{})
	s := NewShard(g.CSR(), 0, g.N(), 1, func(err error) { t.Fatal(err) })
	dist := []int32{-1, 4, 2, -1, 0, 3, 1, -1}
	const round = 10
	for _, step := range []struct {
		name string
		file func()
		want int64
	}{
		{"empty", func() {}, Forever},
		{"due-unreachable", func() { s.due.add(3) }, Forever},
		{"due", func() { s.due.add(1) }, 11 + 4},
		{"due-nearer", func() { s.due.add(2) }, 11 + 2},
		{"entry-later", func() { s.cal.Schedule(TimerEntry{Round: 14, ID: 6}) }, 13},
		{"entry-unreachable", func() { s.cal.Schedule(TimerEntry{Round: 11, ID: 0}) }, 13},
		{"entry", func() { s.cal.Schedule(TimerEntry{Round: 12, ID: 4}) }, 12},
		{"entry-stale", func() { s.nodes[4].gen++ }, 13},
		{"entry-farther", func() { s.cal.Schedule(TimerEntry{Round: 11, ID: 5}) }, 13},
		{"due-played", func() { s.due = newWakeSet(0, 8) }, 11 + 3},
		{"entry-retired", func() { s.nodes[5].done = true }, 14 + 1},
	} {
		step.file()
		if got := s.Reach(round, dist); got != step.want {
			t.Errorf("%s: Reach = %d, want %d", step.name, got, step.want)
		}
		if got, next := s.Reach(round, dist), s.Next(round); got < next {
			t.Errorf("%s: Reach = %d below Next = %d", step.name, got, next)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { s.Reach(round, dist) }); allocs != 0 {
		t.Errorf("Reach: %v allocations, want 0", allocs)
	}
}
