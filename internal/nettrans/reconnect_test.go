package nettrans

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"congestmst/internal/congest"
	"congestmst/internal/graph"
)

// deadAddr returns an address that refuses connections: a listener is
// bound and immediately closed, so its port is (momentarily) free and
// dials fail fast instead of timing out.
func deadAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestCancelDuringDialBackoff pins the satellite bugfix: a context
// cancelled while the dial path sits in its retry backoff must abort
// the wait immediately — the old code slept the backoff out and issued
// one more counted dial against a dead run.
func TestCancelDuringDialBackoff(t *testing.T) {
	g := graph.Path(2, graph.GenOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	m, err := NewMesh(g, Config{
		DialTimeout:     2 * time.Second,
		MaxDialAttempts: 5,
		RetryBackoff:    30 * time.Second, // far longer than the test allows
	}, Topology{
		NShards: 2,
		Addrs:   []string{deadAddr(t), ""},
		Local:   []bool{false, true}, // local shard 1 dials remote shard 0
		RunID:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	type result struct{ err error }
	ch := make(chan result, 1)
	go func() {
		_, err := m.Run(ctx, steps(g, retire))
		ch <- result{err}
	}()
	time.Sleep(100 * time.Millisecond) // let the first (refused) dial land us in backoff
	cancel()
	select {
	case r := <-ch:
		if r.err == nil {
			t.Fatal("cancelled run returned nil error")
		}
		if !errors.Is(r.err, context.Canceled) {
			t.Errorf("err = %v, want wrapped context.Canceled", r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel during dial backoff did not abort the wait")
	}
}

// TestSetupErrorNamesPhase pins the second satellite bugfix: a setup
// failure must name the phase that actually failed — an accepting link
// whose peer never dials surfaces as an accept-phase *PeerError while
// the context is live, and as "cancelled during accept" when it is the
// context that killed the wait.
func TestSetupErrorNamesPhase(t *testing.T) {
	g := graph.Path(2, graph.GenOptions{})
	cfg := Config{
		DialTimeout:     100 * time.Millisecond,
		MaxDialAttempts: 1,
		RetryBackoff:    time.Millisecond,
	}
	topo := Topology{
		NShards: 2,
		Addrs:   []string{"", deadAddr(t)},
		Local:   []bool{true, false}, // local shard 0 waits for remote shard 1's dial
		RunID:   2,
	}

	t.Run("live-context", func(t *testing.T) {
		m, err := NewMesh(g, cfg, topo)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		_, err = m.Run(context.Background(), steps(g, retire))
		var pe *PeerError
		if !errors.As(err, &pe) {
			t.Fatalf("err = %v, want *PeerError", err)
		}
		if pe.Phase != "accept" {
			t.Errorf("Phase = %q, want %q (the accept window expired; no dial was attempted)", pe.Phase, "accept")
		}
		if pe.Shard != 0 || pe.Peer != 1 {
			t.Errorf("PeerError names shard %d / peer %d, want 0 / 1", pe.Shard, pe.Peer)
		}
	})

	t.Run("cancelled-context", func(t *testing.T) {
		m, err := NewMesh(g, Config{
			DialTimeout:     10 * time.Second, // accept window far beyond the cancel
			MaxDialAttempts: 1,
		}, topo)
		if err != nil {
			t.Fatal(err)
		}
		defer m.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
		defer cancel()
		_, err = m.Run(ctx, steps(g, retire))
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want wrapped context.DeadlineExceeded", err)
		}
		var pe *PeerError
		if errors.As(err, &pe) && pe.Phase != "accept" {
			t.Errorf("Phase = %q, want %q", pe.Phase, "accept")
		}
	})
}

// TestReconnectExhaustedSurfacesPeerError is the second half of the
// fault-injection satellite: when a mid-run fault cannot be healed
// (the listener is gone, every redial is refused), the run must end
// with a typed error identifying the unreachable peer — not hang.
func TestReconnectExhaustedSurfacesPeerError(t *testing.T) {
	g := graph.Ring(8, graph.GenOptions{Seed: 5})
	c := newCluster(g, Config{
		Shards:          4,
		DialTimeout:     200 * time.Millisecond,
		MaxDialAttempts: 2,
		RetryBackoff:    5 * time.Millisecond,
		ChaosCloseAfter: 2,
	}, nil)
	if err := c.connect(context.Background()); err != nil {
		t.Fatal(err)
	}
	c.listener.Close() // no redial can ever be accepted again
	type result struct{ err error }
	ch := make(chan result, 1)
	go func() {
		_, err := c.run(context.Background(), steps(g, func(c congest.Context) congest.Step {
			i := 0
			var k congest.Resume
			k = func(c congest.Context, _ []congest.Inbound) congest.Step {
				if i == 50 {
					return congest.Done()
				}
				c.Send(0, congest.Message{Kind: 1})
				i++
				return nextRound(c, k)
			}
			return k(c, nil)
		}))
		ch <- result{err}
	}()
	select {
	case r := <-ch:
		if r.err == nil {
			t.Fatal("unhealable fault not reported")
		}
		var pe *PeerError
		if !errors.As(r.err, &pe) {
			t.Fatalf("err = %v, want a wrapped *PeerError", r.err)
		}
		if pe.Phase != "reconnect" {
			t.Errorf("Phase = %q, want %q", pe.Phase, "reconnect")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("unhealable fault hung the cluster")
	}
}

// TestReconnectWhileRunningAhead severs sockets while a lone busy shard
// runs ahead of its quiet peers. On the token walk shard 0 writes every
// round from round 0 to 99 while its peers stay quiet until their first
// heartbeat at round heartbeatEvery, so shard 0's links close under
// their N-th write with N batches the peer has not acknowledged — more
// than the two a fixed two-batch replay window would resend. The run
// must heal to lockstep's stats.
func TestReconnectWhileRunningAhead(t *testing.T) {
	g := graph.Path(400, graph.GenOptions{})
	want := lockstepStats(t, g, 1, steps(g, tokenWalk))
	for _, after := range []int64{5, 17, 40} {
		t.Run(fmt.Sprintf("chaos-after-%d", after), func(t *testing.T) {
			var ns congest.NetSample
			c := newCluster(g, Config{
				Shards:          4,
				ChaosCloseAfter: after,
				Observer:        &netRecorder{sink: &ns},
			}, nil)
			if err := c.connect(context.Background()); err != nil {
				t.Fatal(err)
			}
			type result struct {
				stats *congest.Stats
				err   error
			}
			ch := make(chan result, 1)
			go func() {
				stats, err := c.run(context.Background(), steps(g, tokenWalk))
				ch <- result{stats, err}
			}()
			var r result
			select {
			case r = <-ch:
			case <-time.After(60 * time.Second):
				t.Fatal("run ahead with severed sockets hung")
			}
			if r.err != nil {
				t.Fatalf("run: %v", r.err)
			}
			if *r.stats != *want {
				t.Errorf("stats diverged after reconnect: got rounds=%d messages=%d, want rounds=%d messages=%d",
					r.stats.Rounds, r.stats.Messages, want.Rounds, want.Messages)
			}
			if ns.Reconnects < 1 {
				t.Errorf("Reconnects = %d, want >= 1", ns.Reconnects)
			}
			if got := c.maxReplay.Load(); got < after {
				t.Errorf("longest replay = %d batches, want >= %d (the writer's unacknowledged run-ahead)", got, after)
			}
		})
	}
}
