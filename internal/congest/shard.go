package congest

import (
	"errors"
	"fmt"
	"sync"

	"congestmst/internal/graph"
)

// Delivery is one staged message: the receiving vertex, the port it
// arrives on there, and the payload. A sender resolves both through
// the CSR when it sends, so delivery touches only the receiver.
type Delivery struct {
	To   int32
	Port int32
	Msg  Message
}

// Shard is the executor every engine runs on: it owns a contiguous
// range of a run's vertices and plays rounds over them.
//
// A round is four calls. Wake collects the vertices due at the round:
// those with fresh mail or a next-round park, plus the calendar
// entries that expired. Play calls their fibers in ascending vertex
// order through the one Context of this package, under recover, and
// files each park: the bitmap of vertices due at round+1, the calendar
// for a later deadline, nothing for ParkAwait. A call's sends are
// staged in Out, one row per destination shard. The destination takes
// each row with Receive, which counts the messages and wakes their
// parked recipients, and Deliver then scatters every received row into
// one arena and gives each recipient a view of its run. Between
// rounds, Next reports the earliest round the shard has work on its
// own account.
//
// An engine keeps only its round structure: Lockstep is one Shard that
// receives its own row, Parallel runs many on a worker pool and hands
// each the column of rows destined to it, Cluster exchanges the
// remote rows over TCP, and Async steps vertices one at a time and
// delivers with Put instead of Deliver.
//
// A Shard is not safe for concurrent use.
type Shard struct {
	// Out[d] stages this round's sends to the vertices of shard d, in
	// send order. The receiver truncates a row once it delivered it.
	Out [][]Delivery

	// Messages counts the deliveries into the shard, and BusyNanos is
	// the engine's own sample of the time it spent on the shard.
	Messages  int64
	BusyNanos int64

	lo, hi int        // the shard's vertices are [lo, hi)
	byKind [256]int64 // deliveries into the shard per Message.Kind
	execs  int64      // fiber calls the shard made

	csr  *graph.CSR
	size int // vertices per shard: vertex v belongs to shard v/size
	b    int // per-edge bandwidth
	fail func(error)

	nodes []vertex
	ctx   vertexCtx
	live  int   // programs not yet finished
	last  int64 // the last round a fiber of the shard ran

	// due holds the vertices due at round+1 and cal the later
	// deadlines; woken is the wake set of the round being played. Wake
	// swaps due and woken and adds the calendar's releases to woken,
	// which Play empties in ascending order.
	cal        Calendar
	due, woken wakeSet
	liveFn     func(TimerEntry) bool
	releaseFn  func(TimerEntry)

	// Delivery arena. A fiber's msgs argument is engine-owned and valid
	// only during the call, so one round's deliveries live in a single
	// flat array and every inbox is a view into it. in lists the rows
	// received this round, total their length, and touched the
	// vertices they reach.
	in      []*[]Delivery
	total   int
	touched []int32
	arena   []Inbound
}

// vertex is the executor's record of one vertex.
type vertex struct {
	fib   Fiber     // nil once done
	inbox []Inbound // the mail of the next call
	gen   int64     // invalidates stale calendar entries
	timer int64     // deadline of the live calendar entry, 0 when none
	// cnt counts this round's deliveries and at is the next arena slot
	// of the vertex while Deliver scatters them.
	cnt, at int32
	done    bool
}

// errAborted is the sentinel panic value that unwinds a fiber call
// after the run has failed. It never escapes the package.
var errAborted = errors.New("congest: run aborted")

// shardBuffers is the recyclable part of a Shard: its arena and its
// staging rows. Engines are single-use, but benchmark sweeps and a
// service run many in sequence; pooling these means a run reuses the
// previous one's buffers instead of growing its own.
type shardBuffers struct {
	arena   []Inbound
	touched []int32
	rows    [][]Delivery
}

var buffers = sync.Pool{New: func() any { return new(shardBuffers) }}

// NewShard returns shard i of a run on csr split into shards of size
// vertices: it owns the vertices [i·size, min((i+1)·size, n)). b is
// the per-edge bandwidth (zero means 1), and fail records the run's
// first error; it is called from the goroutine playing the shard.
func NewShard(csr *graph.CSR, i, size, b int, fail func(error)) *Shard {
	n := len(csr.Off) - 1
	s := &Shard{
		lo:   i * size,
		hi:   min((i+1)*size, n),
		Out:  make([][]Delivery, max(1, (n+size-1)/size)),
		csr:  csr,
		size: size,
		b:    max(b, 1),
		fail: fail,
	}
	s.nodes = make([]vertex, s.hi-s.lo)
	s.due, s.woken = newWakeSet(s.lo, s.hi), newWakeSet(s.lo, s.hi)
	s.ctx.s = s
	s.liveFn, s.releaseFn = s.liveTimer, s.release
	buf := buffers.Get().(*shardBuffers)
	s.arena, s.touched = buf.arena[:0], buf.touched[:0]
	for d := 0; d < len(s.Out) && d < len(buf.rows); d++ {
		s.Out[d] = buf.rows[d]
	}
	return s
}

// Reserve sizes the rows and the arena for a round that sends one
// message on every arc of the shard, which is what an identity
// exchange or a Boruvka flood does. A barrier engine calls it before
// the run: grown by append instead, the buffers would hold up to a
// quarter more than the widest round and leave their smaller copies
// behind as garbage at the moment of peak demand. Async, which flushes
// each vertex's sends at once and never calls Deliver, does not.
func (s *Shard) Reserve() {
	arcs := make([]int, len(s.Out))
	for pos := s.csr.Off[s.lo]; pos < s.csr.Off[s.hi]; pos++ {
		arcs[int(s.csr.To[pos])/s.size]++
	}
	for d, n := range arcs {
		s.Out[d] = grown(s.Out[d], n)
	}
	s.arena = grown(s.arena, int(s.csr.Off[s.hi]-s.csr.Off[s.lo]))
}

// grown returns buf emptied, with room for n elements.
func grown[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, 0, n)
	}
	return buf[:0]
}

// Load installs factory(v) on every vertex of the shard, all due at
// round 0.
func (s *Shard) Load(factory func(id int) Fiber) {
	for v := s.lo; v < s.hi; v++ {
		s.nodes[v-s.lo].fib = factory(v)
		s.due.add(v)
	}
	s.live = s.hi - s.lo
}

// Release drops every fiber and inbox and returns the shard's buffers
// to the pool. Only the statistics may be read afterwards.
func (s *Shard) Release() {
	buf := &shardBuffers{arena: s.arena[:0], touched: s.touched[:0]}
	for _, row := range s.Out {
		if cap(row) > 0 {
			buf.rows = append(buf.rows, row[:0])
		}
	}
	buffers.Put(buf)
	s.nodes, s.Out, s.arena, s.touched = nil, nil, nil, nil
}

// Live returns how many programs of the shard have not finished.
func (s *Shard) Live() int { return s.live }

// AddTo merges the shard's statistics into st: Rounds is the last
// round any shard ran a fiber, Messages and ByKind are sums.
func (s *Shard) AddTo(st *Stats) {
	st.Rounds = max(st.Rounds, s.last)
	st.Messages += s.Messages
	for k, c := range s.byKind {
		st.ByKind[k] += c
	}
}

// Sample returns the shard's workload as shard i of the run.
func (s *Shard) Sample(i int) ShardSample {
	return ShardSample{Shard: i, Vertices: s.hi - s.lo, Execs: s.execs, Messages: s.Messages, BusyNanos: s.BusyNanos}
}

// Wake collects the wake set of round: the vertices due at it plus
// every live calendar entry due at or before it. It returns the set's
// size, each vertex counted once however many reasons it has to wake.
func (s *Shard) Wake(round int64) int {
	s.woken, s.due = s.due, s.woken
	s.cal.Release(round, s.liveFn, s.releaseFn)
	return s.woken.n
}

// Woken is an iter.Seq over the wake set Wake collected: ranged over,
// it yields the set in ascending vertex order and empties it. It is a
// method rather than a function returning one, so that ranging over it
// allocates nothing.
func (s *Shard) Woken(yield func(v int) bool) { s.woken.drain(yield) }

// Play steps every vertex of the wake set in ascending order.
func (s *Shard) Play(round int64) {
	for v := range s.Woken {
		s.Step(v, round)
	}
}

// Step calls vertex v's fiber for round with its sorted mail, stages
// its sends in Out and files its park. A call that panics or breaks
// the model fails the run and retires the fiber; its sends are
// dropped.
func (s *Shard) Step(v int, round int64) {
	nd := &s.nodes[v-s.lo]
	msgs := nd.inbox
	nd.inbox = nil
	SortInbox(msgs)
	s.execs++
	s.last = round
	park, ok := s.call(nd, v, round, msgs)
	c := &s.ctx
	for _, p := range c.ports {
		c.sentN[p] = 0
	}
	c.ports = c.ports[:0]
	if ok {
		for _, dv := range c.out {
			d := int(dv.To) / s.size
			s.Out[d] = append(s.Out[d], dv)
		}
	}
	c.out = c.out[:0]
	if !ok || park == ParkDone {
		s.retire(nd)
		return
	}
	target := park.Deadline()
	if target <= round {
		s.fail(fmt.Errorf("congest: processor %d parked for round %d at round %d", v, target, round))
		s.retire(nd)
		return
	}
	if target == nd.timer && target > round+1 {
		// Mail woke the vertex inside a window, and it parked again to
		// the deadline its live calendar entry already holds.
		return
	}
	nd.gen++
	nd.timer = 0
	switch {
	case target == round+1:
		s.due.add(v)
	case target < Forever:
		s.cal.Schedule(TimerEntry{Round: target, ID: v, Gen: nd.gen})
		nd.timer = target
	}
}

// call runs one Start (round 0) or Resume; a panic fails the run and
// ok reports whether the fiber survived the call. errAborted is the
// unwinding sentinel of an already-failed run (a bandwidth or port
// violation) and is not reported again.
func (s *Shard) call(nd *vertex, v int, round int64, msgs []Inbound) (park Park, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if r != errAborted { //nolint:errorlint // sentinel identity
				s.fail(fmt.Errorf("congest: processor %d panicked: %v", v, r))
			}
			park, ok = ParkDone, false
		}
	}()
	s.ctx.point(v, round)
	if round == 0 {
		return nd.fib.Start(&s.ctx), true
	}
	return nd.fib.Resume(&s.ctx, msgs), true
}

func (s *Shard) retire(nd *vertex) {
	nd.done, nd.fib = true, nil
	s.live--
}

// mailed makes a recipient of fresh mail due at the next round.
func (s *Shard) mailed(nd *vertex, v int) {
	if !nd.done {
		s.due.add(v)
	}
}

// Receive takes a row of this round's sends destined to the shard: it
// counts each message for its recipient and wakes the recipient for
// the next round. Deliver scatters the row later and truncates it, so
// the row must stay untouched until then.
func (s *Shard) Receive(row *[]Delivery) {
	if len(*row) == 0 {
		return
	}
	for _, dv := range *row {
		nd := &s.nodes[int(dv.To)-s.lo]
		if nd.cnt == 0 {
			s.touched = append(s.touched, dv.To)
		}
		nd.cnt++
		s.mailed(nd, int(dv.To))
	}
	s.in = append(s.in, row)
	s.total += len(*row)
}

// Deliver scatters every row received this round into the arena, in
// the order received, and hands each recipient a view of its run.
// Per-port FIFO order holds, since a port has one sender whose
// messages sit in one row in send order, and Step's stable sort by
// port settles the rest. Past what Reserve sized, the arena grows to
// the widest round and stays there, so a round allocates nothing once
// it has. Deliveries to a finished vertex count but are never read.
func (s *Shard) Deliver() {
	if s.total == 0 {
		return
	}
	if cap(s.arena) < s.total {
		s.arena = make([]Inbound, s.total)
	}
	arena := s.arena[:s.total]
	off := int32(0)
	for _, v := range s.touched {
		nd := &s.nodes[int(v)-s.lo]
		nd.at = off
		off += nd.cnt
	}
	for _, row := range s.in {
		for _, dv := range *row {
			nd := &s.nodes[int(dv.To)-s.lo]
			arena[nd.at] = Inbound{Port: int(dv.Port), Msg: dv.Msg}
			nd.at++
			s.byKind[dv.Msg.Kind]++
		}
		*row = (*row)[:0]
	}
	for _, v := range s.touched {
		nd := &s.nodes[int(v)-s.lo]
		if !nd.done {
			nd.inbox = arena[nd.at-nd.cnt : nd.at : nd.at]
		}
		nd.cnt = 0
	}
	s.Messages += int64(s.total)
	s.in, s.total, s.touched = s.in[:0], 0, s.touched[:0]
}

// Put delivers one message at once, into an inbox of its own: the
// Async engine's drain, which has no round to gather an arena over.
func (s *Shard) Put(dv Delivery) {
	s.Messages++
	s.byKind[dv.Msg.Kind]++
	nd := &s.nodes[int(dv.To)-s.lo]
	if !nd.done {
		nd.inbox = append(nd.inbox, Inbound{Port: int(dv.Port), Msg: dv.Msg})
		s.mailed(nd, int(dv.To))
	}
}

// Next returns the earliest round after round at which the shard has
// work of its own: round+1 when a vertex is due, else its earliest
// live park deadline, or Forever. Sends staged in Out are not counted
// until their receiver took them.
func (s *Shard) Next(round int64) int64 {
	if s.due.n > 0 {
		return round + 1
	}
	return s.cal.Next(s.liveFn)
}

// Reach returns the earliest round after round at which a wake of the
// shard can reach a vertex at distance 0, given each vertex's hop
// distance dist[v-lo] inside the shard to the nearest such vertex
// (negative when none is reachable): the minimum, over the vertices due
// at round+1 and the live calendar entries, of the wake round plus the
// vertex's distance, or Forever. Mail moves one hop a round and a
// ParkAwait vertex wakes only to mail, so until mail arrives from
// outside the shard no vertex at distance 0 runs before Reach. It is
// never below Next(round) and allocates nothing.
func (s *Shard) Reach(round int64, dist []int32) int64 {
	best := Forever
	if d := s.due.nearest(dist); d >= 0 {
		best = round + 1 + int64(d)
	}
	// The earliest bucket is last; a bucket at or past best cannot
	// lower it, and neither can any later one.
	for i := len(s.cal.buckets) - 1; i >= 0 && s.cal.buckets[i].round < best; i-- {
		b := &s.cal.buckets[i]
		for _, t := range b.items[b.head:] {
			if d := dist[t.ID-s.lo]; d >= 0 && s.liveTimer(t) {
				best = min(best, b.round+int64(d))
			}
		}
	}
	return best
}

// release adds a due calendar entry's vertex to the wake set; a
// vertex already in it, through mail or a next-round park, stays once.
func (s *Shard) release(t TimerEntry) { s.woken.add(t.ID) }

// liveTimer reports whether a calendar entry still represents a parked
// vertex: a call bumps gen at every park except one to the deadline of
// the vertex's live entry, so any other entry from before its last
// call is stale.
func (s *Shard) liveTimer(t TimerEntry) bool {
	nd := &s.nodes[t.ID-s.lo]
	return !nd.done && nd.gen == t.Gen
}
