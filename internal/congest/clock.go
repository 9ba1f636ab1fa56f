package congest

import "fmt"

// Clock is the round counter of a run: it moves to the round the
// shards agree has work next, and is the one place that round is
// checked against MaxRounds and for deadlock. Each Shard keeps its own
// park calendar; a coordinator takes the minimum of their Next and
// hands it to Advance. Under the Async engine the same value is the
// logical time of its delivery windows.
//
// A Clock is owned by a single goroutine; it is not safe for concurrent
// use.
type Clock struct {
	now int64
	max int64
}

// NewClock returns a clock at round 0 that refuses to advance past
// maxRounds. Zero means 100 million.
func NewClock(maxRounds int64) *Clock {
	if maxRounds <= 0 {
		maxRounds = 100_000_000
	}
	return &Clock{max: maxRounds}
}

// Now returns the current round (starting at 0).
func (c *Clock) Now() int64 { return c.now }

// Advance moves the clock to next, the earliest round any shard has
// work: ErrDeadlock when that is Forever (every program waits for mail
// no one will send), ErrMaxRounds when it lies past the horizon.
func (c *Clock) Advance(next int64) error {
	if next == Forever {
		return ErrDeadlock
	}
	if next > c.max {
		return fmt.Errorf("%w (%d)", ErrMaxRounds, c.max)
	}
	c.now = next
	return nil
}

// TimerEntry is one parked deadline in a calendar: vertex ID wakes at
// Round unless its Gen no longer matches (the vertex woke early and
// re-parked, so this entry is stale).
type TimerEntry struct {
	Round int64
	ID    int
	Gen   int64
}

// Calendar is the park calendar of a Shard: a binary min-heap of
// TimerEntry ordered by Round. Entries are invalidated, not removed: a
// stale entry (the vertex woke early and re-parked, bumping its Gen) is
// dropped when it surfaces, by the live check its owner passes to Next
// and Release. The heap is typed, so scheduling and popping an entry
// allocate nothing once the backing array has grown to the run's
// widest calendar. The zero Calendar is empty and ready to use; every
// Shard keeps its park deadlines in one.
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
