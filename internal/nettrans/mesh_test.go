package nettrans

import (
	"context"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"congestmst/internal/congest"
	"congestmst/internal/ghs"
	"congestmst/internal/graph"
	"congestmst/internal/verify"
)

// serveMesh is a minimal worker listener: it reads the mesh magic and
// hello off every inbound connection and routes it to the mesh —
// exactly what cmd/mstshard's listener does for mesh traffic.
func serveMesh(t *testing.T, ln net.Listener, m *Mesh) {
	t.Helper()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		go func(conn net.Conn) {
			var magic [4]byte
			if _, err := io.ReadFull(conn, magic[:]); err != nil || magic != MeshMagic {
				conn.Close()
				return
			}
			h, err := ReadMeshHello(conn)
			if err != nil {
				conn.Close()
				return
			}
			if err := m.Accept(h, conn); err != nil {
				conn.Close()
			}
		}(conn)
	}
}

// runTwoWorkers runs one cluster split across two Mesh instances, each
// behind its own TCP listener — the worker-mode topology: worker A
// hosts shards 0-1 and worker B shards 2-3. It returns the stats merged
// as a driver merges them, and both meshes.
func runTwoWorkers(t *testing.T, g *graph.Graph, cfg Config, program func() func(id int) congest.Fiber) (*congest.Stats, *Mesh, *Mesh) {
	t.Helper()
	const nshards = 4
	if eff := EffectiveShards(g.N(), nshards); eff != nshards {
		t.Fatalf("EffectiveShards(%d, %d) = %d", g.N(), nshards, eff)
	}
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lnA.Close() })
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lnB.Close() })
	addrs := []string{lnA.Addr().String(), lnA.Addr().String(), lnB.Addr().String(), lnB.Addr().String()}
	const runID = 0xfeed

	mA, err := NewMesh(g, cfg, Topology{
		NShards: nshards, Addrs: addrs, Local: []bool{true, true, false, false}, RunID: runID,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mA.Close)
	mB, err := NewMesh(g, cfg, Topology{
		NShards: nshards, Addrs: addrs, Local: []bool{false, false, true, true}, RunID: runID,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(mB.Close)
	go serveMesh(t, lnA, mA)
	go serveMesh(t, lnB, mB)

	type result struct {
		stats *congest.Stats
		err   error
	}
	ch := make(chan result, 2)
	for _, m := range []*Mesh{mA, mB} {
		go func(m *Mesh) {
			stats, err := m.Run(context.Background(), program())
			ch <- result{stats, err}
		}(m)
	}
	merged := &congest.Stats{}
	for i := 0; i < 2; i++ {
		select {
		case r := <-ch:
			if r.err != nil {
				t.Fatalf("worker run: %v", r.err)
			}
			if r.stats.Rounds > merged.Rounds {
				merged.Rounds = r.stats.Rounds
			}
			merged.Messages += r.stats.Messages
			for k, n := range r.stats.ByKind {
				merged.ByKind[k] += n
			}
		case <-time.After(60 * time.Second):
			t.Fatal("two-worker mesh hung")
		}
	}
	return merged, mA, mB
}

// TestMeshTwoWorkers asserts that a cluster split across two worker
// meshes merges to stats bit-identical to the lockstep engine, which is
// the acceptance bar for the distributed driver.
func TestMeshTwoWorkers(t *testing.T) {
	g, err := graph.RandomConnected(16, 40, graph.GenOptions{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	ports := make([][]int, g.N())
	var mu sync.Mutex
	program := func() func(id int) congest.Fiber {
		return ghs.FiberFactory(g.N(), func(id int, mstPorts []int) {
			mu.Lock()
			ports[id] = mstPorts
			mu.Unlock()
		})
	}
	want := lockstepStats(t, g, 1, program())
	for i := range ports {
		ports[i] = nil
	}
	merged, mA, mB := runTwoWorkers(t, g, Config{DialTimeout: 5 * time.Second}, program)
	if *merged != *want {
		t.Errorf("merged stats differ from lockstep: rounds %d vs %d, messages %d vs %d",
			merged.Rounds, want.Rounds, merged.Messages, want.Messages)
	}
	if err := verify.CheckMST(g, ports); err != nil {
		t.Errorf("two-worker MST invalid: %v", err)
	}
	ns := mA.NetSample()
	// Worker A: pair (0,1) local (1 socket) + links 0-2, 0-3, 1-2, 1-3
	// crossing to worker B (4 sockets).
	if ns.Sockets != 5 {
		t.Errorf("worker A holds %d sockets, want 5", ns.Sockets)
	}
	// The higher shard id dials, so A's only dialed connection is 1→0;
	// B dials its five pairs with shards 2 and 3.
	if len(ns.RTTs) != 1 {
		t.Errorf("worker A measured %d dial RTTs, want 1 (link 1→0)", len(ns.RTTs))
	}
	if nsB := mB.NetSample(); len(nsB.RTTs) != 5 {
		t.Errorf("worker B measured %d dial RTTs, want 5", len(nsB.RTTs))
	}
}

// TestMeshTwoWorkersTokenWalk runs the token walk across two worker
// meshes: each worker sees its own shards quiet for long stretches
// while a shard of the other runs ahead, and the merged stats must
// still equal lockstep's.
func TestMeshTwoWorkersTokenWalk(t *testing.T) {
	g := graph.Path(400, graph.GenOptions{})
	program := func() func(id int) congest.Fiber { return steps(g, tokenWalk) }
	want := lockstepStats(t, g, 1, program())
	merged, _, _ := runTwoWorkers(t, g, Config{DialTimeout: 5 * time.Second}, program)
	if *merged != *want {
		t.Errorf("merged stats differ from lockstep: rounds %d vs %d, messages %d vs %d",
			merged.Rounds, want.Rounds, merged.Messages, want.Messages)
	}
}
