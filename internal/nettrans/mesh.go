package nettrans

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"congestmst/internal/congest"
	"congestmst/internal/graph"
)

// Topology places the shards of one cluster run across processes. The
// in-process engine builds one implicitly (every shard local, one
// loopback listener); a distributed run builds one per worker from the
// cluster config, with Local marking the shards this process hosts and
// Addrs naming the process that hosts each shard. Every worker of one
// run must be given identical NShards/Addrs/RunID, and NShards must be
// the effective shard count (see EffectiveShards) — the engine refuses
// a placement whose ceil-division partition would disagree across
// workers.
type Topology struct {
	// NShards is the total (effective) shard count of the run.
	NShards int
	// Addrs[i] is the dialable address of the process hosting shard i.
	Addrs []string
	// Local[i] reports whether shard i runs in this process.
	Local []bool
	// RunID ties the mesh together: hellos carrying a different run id
	// are rejected, so two concurrent runs never cross-connect.
	RunID uint64
}

// EffectiveShards reports the shard count a run over n vertices
// actually uses for a configured shard count — the same clamping and
// ceil-division partition the engine applies — exported so a cluster
// driver can compute shard assignments identically to every worker.
func EffectiveShards(n, shards int) int {
	if n <= 0 {
		return 0
	}
	cfg := Config{Shards: shards}
	s := cfg.shards(n)
	size := (n + s - 1) / s
	return (n + size - 1) / size
}

// Mesh hosts this process's shards of one (possibly multi-process)
// cluster run. The owner is responsible for the process's listener:
// inbound connections whose hello names this run are handed to Accept,
// which routes them to the right shard link (both at mesh setup and
// when a peer redials after a mid-run fault). Run establishes the mesh
// and executes the fibers of the local vertices.
type Mesh struct {
	c *cluster
}

// NewMesh prepares a cluster run hosting topo's local shards of g in
// this process. No connections are made until Run; Accept may be
// called as soon as NewMesh returns (peers may dial in before the
// local Run starts).
func NewMesh(g *graph.Graph, cfg Config, topo Topology) (*Mesh, error) {
	n := g.N()
	if n == 0 {
		return nil, errors.New("nettrans: empty graph needs no mesh")
	}
	if topo.NShards < 1 || topo.NShards > n {
		return nil, fmt.Errorf("nettrans: topology has %d shards for %d vertices", topo.NShards, n)
	}
	if len(topo.Addrs) != topo.NShards || len(topo.Local) != topo.NShards {
		return nil, fmt.Errorf("nettrans: topology lists %d addrs and %d local flags for %d shards",
			len(topo.Addrs), len(topo.Local), topo.NShards)
	}
	size := (n + topo.NShards - 1) / topo.NShards
	if eff := (n + size - 1) / size; eff != topo.NShards {
		return nil, fmt.Errorf("nettrans: %d shards is not an effective partition of %d vertices (want %d; see EffectiveShards)",
			topo.NShards, n, eff)
	}
	local := 0
	for _, l := range topo.Local {
		if l {
			local++
		}
	}
	if local == 0 {
		return nil, errors.New("nettrans: topology hosts no local shard in this process")
	}
	return &Mesh{c: newCluster(g, cfg, &topo)}, nil
}

// Accept routes one inbound mesh connection whose MeshMagic and hello
// were already consumed by the caller's listener. On success the
// connection is owned by the mesh (the hello ack has been written);
// on error the caller should close it.
func (m *Mesh) Accept(h MeshHello, conn net.Conn) error {
	return m.c.routeMesh(h, conn)
}

// Run establishes the mesh (dialing peers and waiting for their dials,
// as the pair direction dictates) and executes the fiber factory(v) on
// every local vertex v, blocking until the whole cluster terminates,
// fails, or ctx is cancelled. The returned stats cover the local shards only; a
// driver merges them across workers exactly as the in-process engine
// merges shards (max of rounds, sum of messages), which is what keeps
// a distributed run bit-identical.
func (m *Mesh) Run(ctx context.Context, factory func(id int) congest.Fiber) (*congest.Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("nettrans: run cancelled: %w", err)
	}
	if err := m.c.connect(ctx); err != nil {
		m.c.closeAll()
		return nil, err
	}
	return m.c.run(ctx, factory)
}

// NetSample reports the transport account of the completed (or failed)
// run: this process's sockets, traffic, dial/reconnect counters and
// per-peer RTTs.
func (m *Mesh) NetSample() congest.NetSample { return m.c.netSample() }

// Close tears the mesh down; safe to call whether or not Run was
// called (a worker unwinding a failed job setup uses it).
func (m *Mesh) Close() { m.c.closeAll() }

// connect establishes every link of the local shards concurrently: the
// dialing side of each pair dials with bounded concurrency, retry and
// jittered backoff; the accepting side waits for the routed inbound
// connection. In-process runs bring up their own loopback listener
// here (kept alive for the whole run so faulted peers can redial);
// worker-mode runs are fed through Mesh.Accept instead. On failure the
// first error wins: a live-context failure surfaces as a *PeerError
// naming the phase ("dial" or "accept") and the peer, a cancelled
// context as an error wrapping ctx.Err() that names the phase it
// interrupted.
func (c *cluster) connect(ctx context.Context) error {
	c.ctx, c.cancel = context.WithCancel(ctx)
	if c.nshards <= 1 {
		return nil
	}
	if !c.remote {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("nettrans: listen: %w", err)
		}
		c.listener = ln
		addr := ln.Addr().String()
		for i := range c.addrs {
			c.addrs[i] = addr
		}
		go c.acceptLoop(ln)
	}
	sem := make(chan struct{}, c.cfg.maxDials())
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	for _, s := range c.shards {
		if s == nil {
			continue
		}
		for _, l := range s.links {
			if l == nil {
				continue
			}
			wg.Add(1)
			go func(l *link) {
				defer wg.Done()
				phase := "accept"
				if l.self > l.peer {
					phase = "dial"
					sem <- struct{}{}
					defer func() { <-sem }()
				}
				if err := l.recover(0, phase); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					c.closeAll() // unblock the other establishing links
				}
			}(l)
		}
	}
	wg.Wait()
	if firstErr != nil {
		var pe *PeerError
		if ctxErr := ctx.Err(); ctxErr != nil && errors.As(firstErr, &pe) {
			return fmt.Errorf("nettrans: run cancelled during %s (shard %d, peer %d): %w",
				pe.Phase, pe.Shard, pe.Peer, ctxErr)
		}
		return firstErr
	}
	return nil
}

// acceptLoop serves the in-process loopback listener for the lifetime
// of the run, so both the initial mesh bring-up and mid-run redials
// land on the same routing path a worker-mode listener uses.
func (c *cluster) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed by teardown
		}
		go func(conn net.Conn) {
			if err := c.acceptMesh(conn); err != nil {
				conn.Close()
			}
		}(conn)
	}
}

// acceptMesh validates one inbound loopback connection (magic + hello,
// under the read timeout) and routes it to its link.
func (c *cluster) acceptMesh(conn net.Conn) error {
	if err := conn.SetReadDeadline(time.Now().Add(c.cfg.readTimeout())); err != nil { //lint:allow noclock socket read deadline, not algorithm state
		return err
	}
	var magic [4]byte
	if _, err := io.ReadFull(conn, magic[:]); err != nil {
		return err
	}
	if magic != MeshMagic {
		return fmt.Errorf("nettrans: bad mesh magic %q", magic[:])
	}
	h, err := ReadMeshHello(conn)
	if err != nil {
		return err
	}
	if err := conn.SetReadDeadline(time.Time{}); err != nil {
		return err
	}
	return c.routeMesh(h, conn)
}

// routeMesh validates one identified inbound mesh connection, writes
// the hello ack and hands the connection to the accepting link (which
// is either establishing the mesh or recovering from a fault).
func (c *cluster) routeMesh(h MeshHello, conn net.Conn) error {
	select {
	case <-c.closed:
		return errors.New("nettrans: mesh closed")
	default:
	}
	if h.RunID != c.runID {
		return fmt.Errorf("nettrans: mesh hello for unknown run %#x", h.RunID)
	}
	if h.To < 0 || h.To >= c.nshards || h.From <= h.To || h.From >= c.nshards {
		return fmt.Errorf("nettrans: bad mesh hello from shard %d to shard %d", h.From, h.To)
	}
	s := c.shards[h.To]
	if s == nil {
		return fmt.Errorf("nettrans: mesh hello for shard %d, which is not local", h.To)
	}
	l := s.links[h.From]
	if l == nil {
		return fmt.Errorf("nettrans: no link between shards %d and %d", h.To, h.From)
	}
	if _, err := conn.Write([]byte{helloAck}); err != nil {
		return err
	}
	l.offer(conn)
	return nil
}
