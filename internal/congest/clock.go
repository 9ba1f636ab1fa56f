package congest

import (
	"container/heap"
	"fmt"
)

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
	now    int64
	max    int64
	timers timerHeap
}

// NewClock returns a clock at time 0 that refuses to advance past
// maxRounds.
func NewClock(maxRounds int64) *Clock { return &Clock{max: maxRounds} }

// Now returns the current logical time (the round number, starting
// at 0).
func (c *Clock) Now() int64 { return c.now }

// Schedule files a parked vertex's wake deadline in the calendar.
// Entries are invalidated, not removed: a stale entry (the vertex
// woke early and re-parked, bumping its Gen) is dropped when it
// surfaces.
func (c *Clock) Schedule(t TimerEntry) { heap.Push(&c.timers, t) }

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
	for c.timers.Len() > 0 {
		top := c.timers.items[0]
		if !live(top) {
			heap.Pop(&c.timers) // stale
			continue
		}
		if top.Round > c.max {
			return fmt.Errorf("%w (%d)", ErrMaxRounds, c.max)
		}
		c.now = top.Round
		return nil
	}
	return ErrDeadlock
}

// PopDue hands every live calendar entry with deadline <= Now() to
// release, dropping stale ones. release typically marks the vertex
// queued (so duplicate entries for the same vertex die at their live
// check) and appends it to a wake set.
func (c *Clock) PopDue(live func(TimerEntry) bool, release func(TimerEntry)) {
	for c.timers.Len() > 0 && c.timers.items[0].Round <= c.now {
		entry := heap.Pop(&c.timers).(TimerEntry)
		if live(entry) {
			release(entry)
		}
	}
}

// TimerEntry is one parked deadline in a Clock's calendar: vertex ID
// wakes at Round unless its Gen no longer matches (the vertex woke
// early and re-parked, so this entry is stale).
type TimerEntry struct {
	Round int64
	ID    int
	Gen   int64
}

type timerHeap struct {
	items []TimerEntry
}

func (h *timerHeap) Len() int           { return len(h.items) }
func (h *timerHeap) Less(i, j int) bool { return h.items[i].Round < h.items[j].Round }
func (h *timerHeap) Swap(i, j int)      { h.items[i], h.items[j] = h.items[j], h.items[i] }
func (h *timerHeap) Push(x any)         { h.items = append(h.items, x.(TimerEntry)) }
func (h *timerHeap) Pop() any {
	old := h.items
	n := len(old)
	it := old[n-1]
	h.items = old[:n-1]
	return it
}
