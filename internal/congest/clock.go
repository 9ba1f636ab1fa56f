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
// parked elsewhere, so this entry is stale).
type TimerEntry struct {
	Round int64
	ID    int
	Gen   int64
}

// Calendar is the park calendar of a Shard: its entries grouped by
// deadline into one bucket per distinct Round, the latest deadline
// first, so that a park to the latest deadline finds its bucket at once
// and a release drops buckets off the end. Window parks send whole
// fragments to a few shared deadlines, so a calendar holds few buckets,
// and releasing one hands over its entries without ordering work per
// entry. Entries are invalidated, not removed: a stale entry (the
// vertex woke early and parked elsewhere, bumping its Gen) is dropped when it
// is reached, by the live check its owner passes to Next and Release. A
// bucket keeps a cursor past the stale prefix Next dropped, so Next
// checks no entry twice. A drained bucket's array is kept for the next
// deadline, so scheduling and releasing allocate nothing once the
// arrays have grown to the run's widest deadlines. The zero Calendar is
// empty and ready to use; every Shard keeps its park deadlines in one.
type Calendar struct {
	buckets []bucket       // descending by round: the earliest is last
	spare   [][]TimerEntry // emptied arrays of drained buckets
}

// bucket holds the entries of one deadline; those before head are
// stale and dropped.
type bucket struct {
	round int64
	head  int
	items []TimerEntry
}

// Schedule files a parked vertex's wake deadline.
func (h *Calendar) Schedule(t TimerEntry) {
	n := len(h.buckets)
	if n > 0 && h.buckets[0].round == t.Round {
		h.buckets[0].items = append(h.buckets[0].items, t)
		return
	}
	i, j := 0, n // binary search for the first bucket at or before t.Round
	for i < j {
		if m := int(uint(i+j) >> 1); h.buckets[m].round > t.Round {
			i = m + 1
		} else {
			j = m
		}
	}
	if i == n || h.buckets[i].round != t.Round {
		var items []TimerEntry
		if k := len(h.spare); k > 0 {
			items, h.spare = h.spare[k-1], h.spare[:k-1]
		}
		h.buckets = append(h.buckets, bucket{})
		copy(h.buckets[i+1:], h.buckets[i:n])
		h.buckets[i] = bucket{round: t.Round, items: items}
	}
	h.buckets[i].items = append(h.buckets[i].items, t)
}

// Next returns the earliest live deadline, or Forever when no live
// entry remains, discarding the stale entries it passes.
func (h *Calendar) Next(live func(TimerEntry) bool) int64 {
	for n := len(h.buckets); n > 0; n = len(h.buckets) {
		b := &h.buckets[n-1]
		for ; b.head < len(b.items); b.head++ {
			if live(b.items[b.head]) {
				return b.round
			}
		}
		h.drop()
	}
	return Forever
}

// Release drains every bucket with deadline <= now and hands the live
// entries to release, in deadline order and, within a deadline, in
// the order they were filed.
func (h *Calendar) Release(now int64, live func(TimerEntry) bool, release func(TimerEntry)) {
	for n := len(h.buckets); n > 0 && h.buckets[n-1].round <= now; n = len(h.buckets) {
		b := &h.buckets[n-1]
		for _, t := range b.items[b.head:] {
			if live(t) {
				release(t)
			}
		}
		h.drop()
	}
}

// drop removes the earliest bucket and keeps its array for reuse.
func (h *Calendar) drop() {
	n := len(h.buckets) - 1
	h.spare = append(h.spare, h.buckets[n].items[:0])
	h.buckets[n] = bucket{}
	h.buckets = h.buckets[:n]
}
