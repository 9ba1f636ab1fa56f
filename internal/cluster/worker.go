package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"congestmst/internal/algo"
	"congestmst/internal/congest"
	"congestmst/internal/nettrans"
)

// helloWait bounds how long an inbound mesh connection may wait for
// its run's job to arrive: peers of a distributed run dial each other
// as soon as their own job lands, which can be before ours does.
const helloWait = 15 * time.Second

// WorkerOptions tunes one mstshard process.
type WorkerOptions struct {
	// ChaosCloseAfter sets nettrans.Config.ChaosCloseAfter in every
	// job this worker runs — the smoke script's fault-injection switch.
	// It is the only way to turn fault injection on: a job frame cannot.
	// Zero disables it.
	ChaosCloseAfter int64
	// Logf, when non-nil, receives one line per job and per rejected
	// connection (cmd/mstshard wires log.Printf here).
	Logf func(format string, args ...any)
}

// Worker hosts cluster shards behind one TCP listener. The listener
// carries both protocols: driver control connections (ControlMagic)
// and mesh connections from peer workers (nettrans.MeshMagic), told
// apart by their first four bytes. A worker is stateless between jobs
// — the job frame carries the graph, the topology and the transport
// tuning — so mstshard needs nothing but an address to listen on.
type Worker struct {
	ln   net.Listener
	opts WorkerOptions

	mu     sync.Mutex
	meshes map[uint64]*nettrans.Mesh

	closed    chan struct{}
	closeOnce sync.Once
}

// NewWorker listens on addr (e.g. "127.0.0.1:7100", or ":0" for an
// ephemeral test port). Call Serve to start accepting.
func NewWorker(addr string, opts WorkerOptions) (*Worker, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: listen %s: %w", addr, err)
	}
	return &Worker{
		ln:     ln,
		opts:   opts,
		meshes: map[uint64]*nettrans.Mesh{},
		closed: make(chan struct{}),
	}, nil
}

// Addr returns the listener's address (useful with ":0").
func (w *Worker) Addr() string { return w.ln.Addr().String() }

// Serve accepts and dispatches connections until Close; it returns nil
// on a clean shutdown.
func (w *Worker) Serve() error {
	for {
		conn, err := w.ln.Accept()
		if err != nil {
			select {
			case <-w.closed:
				return nil
			default:
				return fmt.Errorf("cluster: accept: %w", err)
			}
		}
		go w.serveConn(conn)
	}
}

// Close stops the listener; in-flight jobs fail as their mesh
// connections drop.
func (w *Worker) Close() error {
	w.closeOnce.Do(func() { close(w.closed) })
	return w.ln.Close()
}

func (w *Worker) logf(format string, args ...any) {
	if w.opts.Logf != nil {
		w.opts.Logf(format, args...)
	}
}

// serveConn reads the protocol magic and hands the connection to the
// control loop or the mesh router.
func (w *Worker) serveConn(conn net.Conn) {
	if err := conn.SetReadDeadline(time.Now().Add(helloWait)); err != nil {
		conn.Close()
		return
	}
	var magic [4]byte
	if _, err := io.ReadFull(conn, magic[:]); err != nil {
		conn.Close()
		return
	}
	switch magic {
	case ControlMagic:
		if err := conn.SetReadDeadline(time.Time{}); err != nil {
			conn.Close()
			return
		}
		w.serveControl(conn)
	case nettrans.MeshMagic:
		if err := w.serveMeshConn(conn); err != nil {
			w.logf("mstshard: mesh connection from %s rejected: %v", conn.RemoteAddr(), err)
			conn.Close()
		}
	default:
		w.logf("mstshard: unknown protocol magic %q from %s", magic[:], conn.RemoteAddr())
		conn.Close()
	}
}

// serveMeshConn routes one inbound mesh connection to its run's mesh,
// waiting briefly for the job if the peer's dial beat the driver's
// control frame here.
func (w *Worker) serveMeshConn(conn net.Conn) error {
	h, err := nettrans.ReadMeshHello(conn)
	if err != nil {
		return err
	}
	if err := conn.SetReadDeadline(time.Time{}); err != nil {
		return err
	}
	deadline := time.Now().Add(helloWait)
	for {
		w.mu.Lock()
		m := w.meshes[h.RunID]
		w.mu.Unlock()
		if m != nil {
			return m.Accept(h, conn)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no job for run %#x", h.RunID)
		}
		select {
		case <-w.closed:
			return errors.New("worker closing")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// serveControl answers job frames on one driver connection until it
// closes. One connection runs one job at a time; a driver (mstserved)
// may keep it open across jobs.
func (w *Worker) serveControl(conn net.Conn) {
	defer conn.Close()
	for {
		typ, payload, err := readFrame(conn)
		if err != nil {
			return // driver hung up
		}
		if typ != frameJob {
			w.logf("mstshard: unexpected control frame %d from %s", typ, conn.RemoteAddr())
			return
		}
		res := w.runJob(payload)
		out, err := encodeResult(res.header, res.ports)
		if err != nil {
			w.logf("mstshard: encode result: %v", err)
			return
		}
		if err := writeFrame(conn, frameResult, out); err != nil {
			w.logf("mstshard: write result: %v", err)
			return
		}
	}
}

type jobResult struct {
	header resultHeader
	ports  [][]int
}

func failedJob(err error) jobResult {
	return jobResult{header: resultHeader{Err: err.Error()}}
}

// runJob executes one job frame: build the graph, host the local
// shards on a mesh, run the algorithm, and account the result.
func (w *Worker) runJob(payload []byte) jobResult {
	h, g, err := decodeJob(payload)
	if err != nil {
		return failedJob(err)
	}
	ports := make([][]int, h.N)
	var rootMu sync.Mutex
	rootRes := struct {
		k, phases int
	}{}
	program, err := algo.Program(algo.Spec{Name: h.Algorithm, N: h.N, Root: h.Root, FixedK: h.FixedK}, ports,
		func(k, phases int) {
			rootMu.Lock()
			rootRes.k, rootRes.phases = k, phases
			rootMu.Unlock()
		})
	if err != nil {
		return failedJob(fmt.Errorf("cluster: %w", err))
	}

	samples := &sampleCollector{}
	cfg := nettrans.Config{
		Bandwidth:       h.Bandwidth,
		MaxRounds:       h.MaxRounds,
		DialTimeout:     time.Duration(h.DialTimeoutMS) * time.Millisecond,
		ReadTimeout:     time.Duration(h.ReadTimeoutMS) * time.Millisecond,
		MaxDialAttempts: h.MaxDialAttempts,
		RetryBackoff:    time.Duration(h.RetryBackoffMS) * time.Millisecond,
		ChaosCloseAfter: w.opts.ChaosCloseAfter,
		Observer:        samples,
	}
	m, err := nettrans.NewMesh(g, cfg, nettrans.Topology{
		NShards: h.NShards,
		Addrs:   h.Addrs,
		Local:   h.Local,
		RunID:   h.RunID,
	})
	if err != nil {
		return failedJob(err)
	}
	w.mu.Lock()
	if _, dup := w.meshes[h.RunID]; dup {
		w.mu.Unlock()
		m.Close()
		return failedJob(fmt.Errorf("cluster: run %#x already active", h.RunID))
	}
	w.meshes[h.RunID] = m
	w.mu.Unlock()
	defer func() {
		w.mu.Lock()
		delete(w.meshes, h.RunID)
		w.mu.Unlock()
		m.Close()
	}()

	ctx := context.Background()
	if h.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(h.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	w.logf("mstshard: run %#x: n=%d m=%d shards=%d algorithm=%s", h.RunID, h.N, h.M, h.NShards, h.Algorithm)
	stats, runErr := m.Run(ctx, program)

	res := jobResult{ports: ports}
	res.header.Net = toWireNet(m.NetSample())
	res.header.Shards = samples.wire()
	if runErr != nil {
		res.header.Err = runErr.Error()
		w.logf("mstshard: run %#x failed: %v", h.RunID, runErr)
		return res
	}
	res.header.Rounds = stats.Rounds
	res.header.Messages = stats.Messages
	res.header.ByKind = map[string]int64{}
	for k, n := range stats.ByKind {
		if n != 0 {
			res.header.ByKind[fmt.Sprint(k)] = n
		}
	}
	res.header.Ranges = shardRanges(h.N, h.NShards, h.Local)
	if rootShard := h.Root / shardSize(h.N, h.NShards); rootShard < len(h.Local) && h.Local[rootShard] {
		res.header.HasRoot = true
		res.header.K = rootRes.k
		res.header.BoruvkaPhases = rootRes.phases
	}
	w.logf("mstshard: run %#x done: rounds=%d messages=%d reconnects=%d",
		h.RunID, stats.Rounds, stats.Messages, res.header.Net.Reconnects)
	return res
}

// sampleCollector captures the per-shard workload samples of a run.
type sampleCollector struct {
	mu      sync.Mutex
	samples []congest.ShardSample
}

func (s *sampleCollector) OnRound(congest.RoundEvent) {}
func (s *sampleCollector) OnPhase(congest.PhaseEvent) {}
func (s *sampleCollector) OnShardSample(sm congest.ShardSample) {
	s.mu.Lock()
	s.samples = append(s.samples, sm)
	s.mu.Unlock()
}

func (s *sampleCollector) wire() []wireShardSample {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]wireShardSample, len(s.samples))
	for i, sm := range s.samples {
		out[i] = wireShardSample{
			Shard: sm.Shard, Vertices: sm.Vertices,
			Execs: sm.Execs, Messages: sm.Messages, BusyNanos: sm.BusyNanos,
		}
	}
	return out
}

func toWireNet(ns congest.NetSample) wireNet {
	w := wireNet{
		Sockets:        ns.Sockets,
		BytesOut:       ns.BytesOut,
		BytesIn:        ns.BytesIn,
		FramesOut:      ns.FramesOut,
		FramesIn:       ns.FramesIn,
		Dials:          ns.Dials,
		DialRetries:    ns.DialRetries,
		Reconnects:     ns.Reconnects,
		ReplayedFrames: ns.ReplayedFrames,
		Batches:        ns.Batches,
	}
	for _, r := range ns.RTTs {
		w.RTTs = append(w.RTTs, wirePeerRTT{Shard: r.Shard, Peer: r.Peer, Nanos: r.Nanos})
	}
	return w
}
