package cluster

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"net"
	"sort"
	"strconv"
	"sync"
	"time"

	"congestmst/internal/congest"
	"congestmst/internal/graph"
	"congestmst/internal/nettrans"
)

// DispatchOptions parameterizes one distributed run.
type DispatchOptions struct {
	// Algorithm names the vertex program: "elkin", "elkin-fixed-k",
	// "ghs" or "pipeline" (matching congestmst.ParseAlgorithm names).
	Algorithm string
	// Root, FixedK, Bandwidth and MaxRounds have their congestmst
	// meanings and are forwarded to every worker.
	Root      int
	FixedK    int
	Bandwidth int
	MaxRounds int64
	// Timeout bounds the remote run on every worker (and the driver's
	// wait for results, with dial slack added). Zero means no limit.
	Timeout time.Duration
	// Observer, when non-nil, receives the merged final round event,
	// every worker's shard samples (congest.ShardObserver) and the
	// merged transport account (congest.NetObserver). Distributed runs
	// emit no per-round events — the rounds play on the workers.
	Observer congest.Observer
}

// DispatchResult is the merged outcome of a distributed run.
type DispatchResult struct {
	// Stats merges the workers exactly as the in-process engine merges
	// shards: Rounds is the max, Messages and ByKind the sums — which
	// is what keeps them bit-identical to a local run.
	Stats *congest.Stats
	// Ports is each vertex's MST port list, assembled from the shard
	// ranges the workers returned.
	Ports [][]int
	// K and BoruvkaPhases come from the worker hosting the root vertex.
	K             int
	BoruvkaPhases int
	// Net is the cluster-wide transport account: counters summed over
	// workers, RTTs concatenated, Sockets the number of distinct
	// shard-pair connections (not the sum of per-worker endpoints,
	// which would double-count cross-worker pairs).
	Net congest.NetSample
}

// WorkerError reports which worker of a distributed run failed.
type WorkerError struct {
	// Addr is the worker's control address; Shards the shards it was
	// assigned.
	Addr   string
	Shards []int
	// Err is the underlying failure (a *nettrans.PeerError inside it
	// names the unreachable peer when the mesh could not be healed).
	Err error
}

func (e *WorkerError) Error() string {
	return fmt.Sprintf("cluster: worker %s (shards %v): %v", e.Addr, e.Shards, e.Err)
}

func (e *WorkerError) Unwrap() error { return e.Err }

// Dispatch partitions g exactly like the in-process Cluster engine
// (nettrans.EffectiveShards over cfg.Shards), groups the shards by
// worker address, ships one job per worker over the control protocol,
// and merges the results. It blocks until every worker reports.
func Dispatch(ctx context.Context, g *graph.Graph, cfg *Config, opts DispatchOptions) (*DispatchResult, error) {
	n := g.N()
	res := &DispatchResult{Stats: &congest.Stats{}, Ports: make([][]int, n)}
	if n == 0 {
		return res, nil
	}
	eff := nettrans.EffectiveShards(n, cfg.Shards)
	addrs := make([]string, eff)
	for i := range addrs {
		addrs[i] = cfg.Advertise(i)
	}
	var runID uint64
	var seed [8]byte
	if _, err := crand.Read(seed[:]); err != nil {
		return nil, fmt.Errorf("cluster: run id: %w", err)
	}
	runID = binary.LittleEndian.Uint64(seed[:])

	// Group shards by worker, preserving first-appearance order.
	type assignment struct {
		addr   string
		shards []int
	}
	byAddr := map[string]int{}
	var workers []*assignment
	for i, a := range addrs {
		w, ok := byAddr[a]
		if !ok {
			w = len(workers)
			byAddr[a] = w
			workers = append(workers, &assignment{addr: a})
		}
		workers[w].shards = append(workers[w].shards, i)
	}

	dialTimeout := cfg.DialTimeout
	if dialTimeout <= 0 {
		dialTimeout = 10 * time.Second
	}
	results := make([]resultHeader, len(workers))
	errs := make([]error, len(workers))
	var wg sync.WaitGroup
	for w, a := range workers {
		wg.Add(1)
		go func(w int, a *assignment) {
			defer wg.Done()
			local := make([]bool, eff)
			for _, s := range a.shards {
				local[s] = true
			}
			job := jobHeader{
				RunID:           runID,
				N:               n,
				M:               g.M(),
				NShards:         eff,
				Addrs:           addrs,
				Local:           local,
				Algorithm:       opts.Algorithm,
				Root:            opts.Root,
				FixedK:          opts.FixedK,
				Bandwidth:       opts.Bandwidth,
				MaxRounds:       opts.MaxRounds,
				DialTimeoutMS:   cfg.DialTimeout.Milliseconds(),
				ReadTimeoutMS:   cfg.ReadTimeout.Milliseconds(),
				MaxDialAttempts: cfg.MaxDialAttempts,
				RetryBackoffMS:  cfg.RetryBackoff.Milliseconds(),
				TimeoutMS:       opts.Timeout.Milliseconds(),
			}
			hdr, err := runWorkerJob(ctx, a.addr, dialTimeout, opts.Timeout, job, g, res.Ports)
			if err != nil {
				errs[w] = &WorkerError{Addr: a.addr, Shards: a.shards, Err: err}
				return
			}
			results[w] = hdr
		}(w, a)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	// Merge: rounds=max, messages/byKind=sum; K and phases from the
	// root's worker; transport counters summed with RTTs concatenated.
	for w := range results {
		hdr := &results[w]
		if hdr.Err != "" {
			return nil, &WorkerError{Addr: workers[w].addr, Shards: workers[w].shards,
				Err: fmt.Errorf("%s", hdr.Err)}
		}
		if hdr.Rounds > res.Stats.Rounds {
			res.Stats.Rounds = hdr.Rounds
		}
		res.Stats.Messages += hdr.Messages
		for ks, cnt := range hdr.ByKind {
			k, err := strconv.Atoi(ks)
			if err != nil || k < 0 || k >= len(res.Stats.ByKind) {
				return nil, fmt.Errorf("cluster: worker %s reported invalid message kind %q", workers[w].addr, ks)
			}
			res.Stats.ByKind[k] += cnt
		}
		if hdr.HasRoot {
			res.K = hdr.K
			res.BoruvkaPhases = hdr.BoruvkaPhases
		}
		res.Net.BytesOut += hdr.Net.BytesOut
		res.Net.BytesIn += hdr.Net.BytesIn
		res.Net.FramesOut += hdr.Net.FramesOut
		res.Net.FramesIn += hdr.Net.FramesIn
		res.Net.Dials += hdr.Net.Dials
		res.Net.DialRetries += hdr.Net.DialRetries
		res.Net.Reconnects += hdr.Net.Reconnects
		res.Net.ReplayedFrames += hdr.Net.ReplayedFrames
		res.Net.Batches += hdr.Net.Batches
		for _, r := range hdr.Net.RTTs {
			res.Net.RTTs = append(res.Net.RTTs, congest.PeerRTT{Shard: r.Shard, Peer: r.Peer, Nanos: r.Nanos})
		}
	}
	res.Net.Sockets = eff * (eff - 1) / 2
	sort.Slice(res.Net.RTTs, func(i, j int) bool {
		a, b := res.Net.RTTs[i], res.Net.RTTs[j]
		if a.Shard != b.Shard {
			return a.Shard < b.Shard
		}
		return a.Peer < b.Peer
	})

	// Coverage: every vertex must have received a port list from
	// exactly its shard's worker (nil means a range went missing).
	for v, ps := range res.Ports {
		if ps == nil {
			return nil, fmt.Errorf("cluster: no worker reported ports for vertex %d", v)
		}
	}

	if obs := opts.Observer; obs != nil {
		obs.OnRound(congest.RoundEvent{Round: res.Stats.Rounds, Messages: res.Stats.Messages})
		if so, ok := obs.(congest.ShardObserver); ok {
			for w := range results {
				for _, sm := range results[w].Shards {
					so.OnShardSample(congest.ShardSample{
						Shard: sm.Shard, Vertices: sm.Vertices,
						Execs: sm.Execs, Messages: sm.Messages, BusyNanos: sm.BusyNanos,
					})
				}
			}
		}
		if no, ok := obs.(congest.NetObserver); ok {
			no.OnNet(res.Net)
		}
	}
	return res, nil
}

// runWorkerJob ships one job to one worker and waits for its result.
// The dial is retried briefly (workers may still be starting when the
// driver launches) and is context-aware.
func runWorkerJob(ctx context.Context, addr string, dialTimeout, runTimeout time.Duration,
	job jobHeader, g *graph.Graph, ports [][]int) (resultHeader, error) {
	var zero resultHeader
	payload, err := encodeJob(job, g)
	if err != nil {
		return zero, err
	}
	dialer := &net.Dialer{Timeout: dialTimeout}
	var conn net.Conn
	for attempt := 0; ; attempt++ {
		conn, err = dialer.DialContext(ctx, "tcp", addr)
		if err == nil {
			break
		}
		if attempt >= 4 || ctx.Err() != nil {
			return zero, fmt.Errorf("dial control: %w", err)
		}
		select {
		case <-ctx.Done():
			return zero, ctx.Err()
		case <-time.After(200 * time.Millisecond):
		}
	}
	defer conn.Close()
	// A cancelled driver context must unblock the result read, not just
	// the dial.
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-watchDone:
		}
	}()
	if runTimeout > 0 {
		// The worker enforces the run timeout itself; the deadline here
		// only guards against a worker that died without answering.
		if err := conn.SetDeadline(time.Now().Add(runTimeout + 2*dialTimeout)); err != nil {
			return zero, err
		}
	}
	if _, err := conn.Write(ControlMagic[:]); err != nil {
		return zero, fmt.Errorf("write control magic: %w", err)
	}
	if err := writeFrame(conn, frameJob, payload); err != nil {
		return zero, fmt.Errorf("write job: %w", err)
	}
	typ, resPayload, err := readFrame(conn)
	if err != nil {
		return zero, fmt.Errorf("read result: %w", err)
	}
	if typ != frameResult {
		return zero, fmt.Errorf("unexpected control frame %d", typ)
	}
	return decodeResult(resPayload, ports)
}
