package nettrans

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"sync"
	"time"
)

// PeerError is the typed transport error for one mesh link: it names
// the local shard, the peer shard it was talking to, and the phase
// that failed ("dial", "accept", or "reconnect" once the run is
// underway), so an operator can tell which worker of a distributed
// cluster is unreachable. Unwrap exposes the underlying cause.
type PeerError struct {
	// Shard is the local endpoint; Peer the remote shard of the link.
	Shard, Peer int
	// Phase names what the link was doing: "dial" or "accept" during
	// mesh setup, "reconnect" for a failed mid-run re-establishment.
	Phase string
	// Err is the underlying network error.
	Err error
}

func (e *PeerError) Error() string {
	return fmt.Sprintf("nettrans: shard %d: %s failed for peer shard %d: %v", e.Shard, e.Phase, e.Peer, e.Err)
}

func (e *PeerError) Unwrap() error { return e.Err }

// errMeshClosed unwinds link recovery when the run is tearing down; it
// never escapes the package un-wrapped.
var errMeshClosed = errors.New("mesh closed")

// Mesh hello wire format, exchanged once per established connection:
//
//	4 bytes  magic "MSH3"
//	u32      from  — the dialing shard
//	u32      to    — the shard being connected to
//	u64      run   — the run identifier both endpoints must agree on
//
// The accepting endpoint answers with a single ack byte after routing
// the connection, which is what the dialer's RTT gauge times. The magic
// names the batch format and the sync rule too (MSH3 batch headers carry
// the sender's send bound next to its calendar, and batches flow only at
// sync rounds), so a fleet mixing binaries of different formats fails at
// the hello instead of mis-framing or desyncing.
var MeshMagic = [4]byte{'M', 'S', 'H', '3'}

const (
	meshHelloBodySize = 4 + 4 + 8
	helloAck          = 0x06
)

// MeshHello identifies one inbound mesh connection: shard From (the
// dialer) connecting to shard To of run RunID.
type MeshHello struct {
	From, To int
	RunID    uint64
}

// ReadMeshHello decodes the hello body that follows MeshMagic on an
// inbound mesh connection. The caller owns the read deadline.
func ReadMeshHello(r io.Reader) (MeshHello, error) {
	var buf [meshHelloBodySize]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return MeshHello{}, fmt.Errorf("nettrans: mesh hello: %w", err)
	}
	return MeshHello{
		From:  int(int32(binary.LittleEndian.Uint32(buf[0:]))),
		To:    int(int32(binary.LittleEndian.Uint32(buf[4:]))),
		RunID: binary.LittleEndian.Uint64(buf[8:]),
	}, nil
}

func appendMeshHello(buf []byte, h MeshHello) []byte {
	buf = append(buf, MeshMagic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.From))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.To))
	buf = binary.LittleEndian.AppendUint64(buf, h.RunID)
	return buf
}

// link is one shard's endpoint of the connection shared with one peer
// shard. The higher-id shard owns the dialing side of the pair; the
// lower-id side receives its connection from the accept loop (local
// listener or a worker's). Either endpoint transparently re-establishes
// the connection when it breaks mid-run: every batch the peer may not
// have consumed is replayed on the fresh socket and the receiver
// deduplicates by round, so a healed fault is invisible to the
// synchronizer.
type link struct {
	c          *cluster
	self, peer int

	batches chan *batch

	// pending hands routed inbound connections (initial accept and
	// re-accepts after a fault) to the accepting side's recovery.
	pending chan net.Conn

	// rng drives the backoff jitter; seeded from the link identity so
	// the deterministic-packages lint holds and test runs are stable.
	rng *rand.Rand

	rttNanos int64 // last hello round-trip, written under mu

	mu         sync.Mutex
	cond       *sync.Cond
	conn       net.Conn
	gen        uint64 // bumped on every successful (re-)establishment
	recovering bool
	dead       error // terminal *PeerError; the link is unusable

	// The replay log: every batch written since the last batch read
	// from the peer, back to back in logBuf, oldest first, with one
	// logEntry per batch. Reading the peer's batch for sync G proves
	// the peer consumed all of ours for syncs before G (it had to, to
	// reach G), so ack drops exactly those; the rest may still die in a
	// broken connection's buffers. A writing shard can run ahead of a
	// quiet peer until it needs the peer's next heartbeat, so the log
	// holds at most heartbeatEvery+2 batches. The receiver deduplicates
	// by round, so replaying all of it is safe.
	logBuf []byte
	log    []logEntry

	// chaosLeft counts down Config.ChaosCloseAfter over the batches this
	// endpoint writes; only the shard loop touches it.
	chaosLeft int64
}

// logEntry describes one batch of the replay log: its round, its frame
// count, and where its bytes end in logBuf.
type logEntry struct {
	round, frames int64
	end           int
}

func newLink(c *cluster, self, peer int) *link {
	l := &link{
		c:    c,
		self: self,
		peer: peer,
		// A writing peer runs at most heartbeatEvery syncs ahead of
		// our ingestion (then it needs our next batch), so at most
		// heartbeatEvery+1 of its batches wait here, and a reconnect
		// replays at most that many again as duplicates. With room for
		// both, the reader never stops draining the socket, so the
		// peer's writes never block.
		batches:   make(chan *batch, 2*(heartbeatEvery+2)),
		chaosLeft: c.cfg.ChaosCloseAfter,
		pending:   make(chan net.Conn, 1),
		rng:       rand.New(rand.NewSource(int64(c.runID) ^ int64(self)<<32 ^ int64(peer))),
	}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// dials reports whether this endpoint owns the dialing side of the
// pair (the higher-id shard dials the lower).
func (l *link) dials() bool { return l.self > l.peer }

// current returns the live connection and its generation, waiting out
// any in-flight recovery. A dead link returns its terminal PeerError.
func (l *link) current() (net.Conn, uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.recovering {
		l.cond.Wait()
	}
	if l.dead != nil {
		return nil, 0, l.dead
	}
	return l.conn, l.gen, nil
}

// rtt returns the last measured hello round-trip (dialing side only).
func (l *link) rtt() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rttNanos
}

// offer routes one freshly accepted connection to the accepting side's
// recovery, replacing any stale pending connection (the newest dial
// wins: the peer only redials after abandoning its previous socket).
func (l *link) offer(conn net.Conn) {
	for {
		select {
		case l.pending <- conn:
			// Re-check teardown: closeAll may have drained pending just
			// before the park, which would leak this fd.
			select {
			case <-l.c.closed:
				select {
				case p := <-l.pending:
					p.Close()
				default:
				}
			default:
			}
			return
		default:
		}
		select {
		case old := <-l.pending:
			old.Close()
		default:
		}
	}
}

// establish performs one bounded connection attempt cycle: the dialing
// side dials with exponential backoff + jitter (context-aware: a
// cancelled run aborts a backoff wait immediately instead of sleeping
// it out), the accepting side waits for the accept loop to route the
// peer's connection.
func (l *link) establish() (net.Conn, error) {
	c := l.c
	if !l.dials() {
		timer := time.NewTimer(c.cfg.acceptWindow())
		defer timer.Stop()
		select {
		case conn := <-l.pending:
			return conn, nil
		case <-c.ctx.Done():
			return nil, c.ctx.Err()
		case <-c.closed:
			return nil, errMeshClosed
		case <-timer.C:
			return nil, fmt.Errorf("no connection from peer within %v", c.cfg.acceptWindow())
		}
	}
	addr := c.addrs[l.peer] // resolved lazily: in-process runs fill addrs when they listen
	dialer := &net.Dialer{Timeout: c.cfg.dialTimeout()}
	backoff := c.cfg.retryBackoff()
	attempts := c.cfg.maxDialAttempts()
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			// Jittered exponential backoff, abandoned the moment the
			// run is cancelled or the mesh closes — a dead context must
			// not wait out the sleep and issue one more counted dial.
			wait := backoff + time.Duration(l.rng.Int63n(int64(backoff)/2+1))
			backoff *= 2
			timer := time.NewTimer(wait)
			select {
			case <-c.ctx.Done():
				timer.Stop()
				return nil, c.ctx.Err()
			case <-c.closed:
				timer.Stop()
				return nil, errMeshClosed
			case <-timer.C:
			}
			c.dialRetries.Add(1)
		}
		c.dials.Add(1)
		start := time.Now() //lint:allow noclock per-peer RTT gauge, off the stats path
		conn, err := dialer.DialContext(c.ctx, "tcp", addr)
		if err == nil {
			err = l.hello(conn)
			if err == nil {
				l.mu.Lock()
				l.rttNanos = time.Since(start).Nanoseconds() //lint:allow noclock per-peer RTT gauge, off the stats path
				l.mu.Unlock()
				return conn, nil
			}
			conn.Close()
		}
		lastErr = err
		if c.ctx.Err() != nil {
			return nil, lastErr
		}
	}
	return nil, lastErr
}

// hello identifies this dialing endpoint to the accepting process and
// waits for the routing acknowledgement; the exchange shares the dial
// timeout.
func (l *link) hello(conn net.Conn) error {
	deadline := time.Now().Add(l.c.cfg.dialTimeout()) //lint:allow noclock socket deadline, not algorithm state
	if err := conn.SetDeadline(deadline); err != nil {
		return err
	}
	buf := appendMeshHello(make([]byte, 0, 4+meshHelloBodySize),
		MeshHello{From: l.self, To: l.peer, RunID: l.c.runID})
	if _, err := conn.Write(buf); err != nil {
		return fmt.Errorf("hello: %w", err)
	}
	var ack [1]byte
	if _, err := io.ReadFull(conn, ack[:]); err != nil {
		return fmt.Errorf("hello ack: %w", err)
	}
	if ack[0] != helloAck {
		return fmt.Errorf("hello ack: unexpected byte %#x", ack[0])
	}
	return conn.SetDeadline(time.Time{})
}

// recover (re-)establishes the connection after a failure observed on
// generation seen. Exactly one caller performs the work — writer and
// reader race here after a fault, and late observers of an already
// replaced generation return immediately — and the replay log is
// written to the fresh socket before any waiter may write again, so the
// peer never misses a batch. phase names the caller for the terminal
// error ("dial"/"accept" during setup, "reconnect" mid-run).
func (l *link) recover(seen uint64, phase string) error {
	c := l.c
	l.mu.Lock()
	for {
		if l.dead != nil {
			l.mu.Unlock()
			return l.dead
		}
		if l.gen != seen {
			l.mu.Unlock()
			return nil
		}
		if !l.recovering {
			break
		}
		l.cond.Wait()
	}
	l.recovering = true
	old := l.conn
	l.conn = nil
	l.mu.Unlock()

	if old != nil {
		old.Close()
	}
	conn, err := l.connectAndReplay(seen > 0)
	l.mu.Lock()
	l.recovering = false
	if err != nil {
		l.dead = &PeerError{Shard: l.self, Peer: l.peer, Phase: phase, Err: err}
		err = l.dead
	} else {
		l.conn = conn
		l.gen++
	}
	l.cond.Broadcast()
	l.mu.Unlock()
	if err != nil {
		return err
	}
	if seen > 0 {
		c.reconnects.Add(1)
	}
	return nil
}

// connectAndReplay establishes a fresh connection and retransmits the
// replay log on it. A connection that dies during the replay itself is
// retried once more before giving up.
func (l *link) connectAndReplay(replay bool) (net.Conn, error) {
	for try := 0; ; try++ {
		conn, err := l.establish()
		if err != nil {
			return nil, err
		}
		if !replay {
			return conn, nil
		}
		l.mu.Lock()
		wire := bytes.Clone(l.logBuf)
		var frames int64
		for _, e := range l.log {
			frames += e.frames
		}
		replayed := int64(len(l.log))
		l.mu.Unlock()
		_, werr := conn.Write(wire)
		if werr == nil {
			l.c.replayedFrames.Add(frames)
			l.c.netBytesOut.Add(int64(len(wire)))
			l.c.netFramesOut.Add(frames)
			atomicMax(&l.c.maxReplay, replayed)
			return conn, nil
		}
		conn.Close()
		if try >= 1 || l.c.ctx.Err() != nil {
			return nil, fmt.Errorf("replay after reconnect failed: %w", werr)
		}
	}
}

// send transmits one encoded batch for the given sync round,
// transparently reconnecting and replaying on failure. The batch joins
// the replay log before the first write, so a recovery triggered by
// either endpoint of the connection re-delivers it; the receiver drops
// any duplicate by its round number.
func (l *link) send(round int64, buf []byte, frames int64) error {
	l.mu.Lock()
	l.logBuf = append(l.logBuf, buf...)
	l.log = append(l.log, logEntry{round: round, frames: frames, end: len(l.logBuf)})
	l.mu.Unlock()
	for {
		conn, gen, err := l.current()
		if err != nil {
			return err
		}
		n, werr := conn.Write(buf)
		if werr == nil {
			l.c.netBytesOut.Add(int64(n))
			l.c.netFramesOut.Add(frames)
			l.c.netBatches.Add(1)
			if l.chaosLeft > 0 {
				if l.chaosLeft--; l.chaosLeft == 0 {
					conn.Close()
				}
			}
			return nil
		}
		if err := l.recover(gen, "reconnect"); err != nil {
			return err
		}
		// Either this call re-established and replayed the batch, or a
		// concurrent recovery did with an older snapshot; loop so the
		// current bytes are guaranteed out (a duplicate is harmless).
	}
}

// ack drops the logged batches for syncs before round: the peer wrote
// its batch for round, so it consumed every one of ours before it.
func (l *link) ack(round int64) {
	l.mu.Lock()
	k := 0
	for k < len(l.log) && l.log[k].round < round {
		k++
	}
	if k > 0 {
		cut := l.log[k-1].end
		l.logBuf = l.logBuf[:copy(l.logBuf, l.logBuf[cut:])]
		l.log = l.log[:copy(l.log, l.log[k:])]
		for i := range l.log {
			l.log[i].end -= cut
		}
	}
	l.mu.Unlock()
}

// readLoop decodes inbound batches off the link until the mesh closes,
// re-establishing the connection (with a fresh framing buffer) whenever
// it breaks mid-run.
func (l *link) readLoop() {
	c := l.c
	for {
		conn, gen, err := l.current()
		if err != nil {
			l.pushErr(err)
			return
		}
		r := newBatchReader(conn, c.nshards, l.peer)
		for {
			b, rerr := r.read()
			if rerr != nil {
				select {
				case <-c.closed:
					return
				default:
				}
				if err := l.recover(gen, "reconnect"); err != nil {
					l.pushErr(err)
					return
				}
				break // pick up the recovered connection
			}
			c.netBytesIn.Add(int64(4 + batchHeaderSize + len(b.dests)*destSize + len(b.msgs)*frameSize))
			c.netFramesIn.Add(int64(len(b.msgs)))
			select {
			case l.batches <- b:
			case <-c.closed:
				return
			}
		}
	}
}

func (l *link) pushErr(err error) {
	select {
	case l.batches <- &batch{err: err}:
	case <-l.c.closed:
	}
}

// close shuts the link down during mesh teardown: the live connection
// and any pending re-accepted one are closed, which unwinds the reader
// and any in-flight recovery.
func (l *link) close() {
	l.mu.Lock()
	if l.conn != nil {
		l.conn.Close()
	}
	l.mu.Unlock()
	select {
	case p := <-l.pending:
		p.Close()
	default:
	}
}
