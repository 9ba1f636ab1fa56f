package congest

import "fmt"

// Clock is the logical clock every engine in this repository advances,
// split out of the engines so the round counter and the park calendar
// are one shared synchronizer rather than a per-engine copy.
//
// Under the synchronizer-driven engines (lockstep, parallel, fiber,
// cluster) the clock is the round index: Advance(due) moves it by one
// when any vertex owes an immediate wake, and fast-forwards over idle
// stretches to the earliest live calendar entry otherwise. Under the
// Async engine the same value is the α-synchronizer's logical time: a
// tick happens only when the quiescence detector has seen every
// in-flight message acknowledged, so "round r+1" means "the causal
// frontier after window r", not "the barrier after round r". Both
// interpretations share this one implementation.
//
// A Clock is owned by a single coordinator goroutine; it is not safe
// for concurrent use. MaxRounds violations and deadlock (no due work
// and no live calendar entry) surface as ErrMaxRounds / ErrDeadlock
// from Advance, with the same error text every engine has always
// reported.
type Clock struct {
	now int64
	max int64
	Calendar
}

// NewClock returns a clock at time 0 that refuses to advance past
// maxRounds.
func NewClock(maxRounds int64) *Clock { return &Clock{max: maxRounds} }

// Now returns the current logical time (the round number, starting
// at 0).
func (c *Clock) Now() int64 { return c.now }

// Advance moves the clock to the next moment with work: now+1 when
// due (some vertex owes an immediate wake — fresh deliveries or an
// explicit next-tick park), otherwise a fast-forward to the earliest
// live calendar entry. live reports whether an entry still represents
// a parked vertex; stale entries are discarded as they surface.
// Returns ErrMaxRounds past the horizon and ErrDeadlock when nothing
// is due and no live entry remains.
func (c *Clock) Advance(due bool, live func(TimerEntry) bool) error {
	if due {
		c.now++
		if c.now > c.max {
			return fmt.Errorf("%w (%d)", ErrMaxRounds, c.max)
		}
		return nil
	}
	next := c.Next(live)
	if next == Forever {
		return ErrDeadlock
	}
	if next > c.max {
		return fmt.Errorf("%w (%d)", ErrMaxRounds, c.max)
	}
	c.now = next
	return nil
}

// PopDue hands every live calendar entry with deadline <= Now() to
// release, dropping stale ones. release typically marks the vertex
// queued (so duplicate entries for the same vertex die at their live
// check) and appends it to a wake set.
func (c *Clock) PopDue(live func(TimerEntry) bool, release func(TimerEntry)) {
	c.Release(c.now, live, release)
}

// TimerEntry is one parked deadline in a calendar: vertex ID wakes at
// Round unless its Gen no longer matches (the vertex woke early and
// re-parked, so this entry is stale).
type TimerEntry struct {
	Round int64
	ID    int
	Gen   int64
}

// Calendar is the park calendar of a round loop: a binary min-heap of
// TimerEntry ordered by Round. Entries are invalidated, not removed: a
// stale entry (the vertex woke early and re-parked, bumping its Gen) is
// dropped when it surfaces, by the live check its owner passes to Next
// and Release. The heap is typed, so scheduling and popping an entry
// allocate nothing once the backing array has grown to the run's
// widest calendar. The zero Calendar is empty and ready to use; every
// round loop (Clock, hence lockstep and parsim, and each nettrans
// shard) keeps its calendar in one.
type Calendar struct {
	items []TimerEntry
}

// Schedule files a parked vertex's wake deadline.
func (h *Calendar) Schedule(t TimerEntry) {
	h.items = append(h.items, t)
	h.up(len(h.items) - 1)
}

// Next returns the earliest live deadline, or Forever when no live
// entry remains, discarding the stale entries it finds on top.
func (h *Calendar) Next(live func(TimerEntry) bool) int64 {
	for len(h.items) > 0 {
		if top := h.items[0]; live(top) {
			return top.Round
		}
		h.pop()
	}
	return Forever
}

// Release pops every entry with deadline <= now and hands the live
// ones to release, in deadline order.
func (h *Calendar) Release(now int64, live func(TimerEntry) bool, release func(TimerEntry)) {
	for len(h.items) > 0 && h.items[0].Round <= now {
		if t := h.pop(); live(t) {
			release(t)
		}
	}
}

// pop removes and returns the earliest entry; the heap must be
// non-empty.
func (h *Calendar) pop() TimerEntry {
	top := h.items[0]
	last := len(h.items) - 1
	h.items[0] = h.items[last]
	h.items = h.items[:last]
	h.down(0)
	return top
}

func (h *Calendar) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h.items[p].Round <= h.items[i].Round {
			return
		}
		h.items[p], h.items[i] = h.items[i], h.items[p]
		i = p
	}
}

func (h *Calendar) down(i int) {
	n := len(h.items)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h.items[r].Round < h.items[l].Round {
			m = r
		}
		if h.items[i].Round <= h.items[m].Round {
			return
		}
		h.items[i], h.items[m] = h.items[m], h.items[i]
		i = m
	}
}
