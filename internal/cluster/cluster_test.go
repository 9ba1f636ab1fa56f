package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"congestmst/internal/congest"
	"congestmst/internal/core"
	"congestmst/internal/ghs"
	"congestmst/internal/graph"
	"congestmst/internal/verify"
)

func TestConfigParse(t *testing.T) {
	t.Run("valid", func(t *testing.T) {
		cfg, err := Parse(strings.NewReader(`
{"cluster":"v1","shards":3,"dial_timeout_ms":5000,"max_dial_attempts":2}
{"shard":1,"bind":"127.0.0.1:7101"}
{"shard":0,"bind":"0.0.0.0:7100","advertise":"127.0.0.1:7100"}
{"shard":2,"bind":"127.0.0.1:7102"}
`))
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Shards != 3 || cfg.DialTimeout != 5*time.Second || cfg.MaxDialAttempts != 2 {
			t.Errorf("header misparsed: %+v", cfg)
		}
		if got := cfg.Advertise(0); got != "127.0.0.1:7100" {
			t.Errorf("Advertise(0) = %q", got)
		}
		if got := cfg.Advertise(1); got != "127.0.0.1:7101" {
			t.Errorf("Advertise(1) = %q (want the bind fallback)", got)
		}
	})

	bad := []struct {
		name, in, want string
	}{
		{"no-header", "", "no header"},
		{"bad-version", `{"cluster":"v2","shards":1}`, "v1"},
		{"unknown-field", "{\"cluster\":\"v1\",\"shards\":1}\n{\"shard\":0,\"bindd\":\"x:1\"}", "line 2"},
		{"missing-shard-key", "{\"cluster\":\"v1\",\"shards\":1}\n{\"bind\":\"x:1\"}", "needs \"shard\""},
		{"out-of-range", "{\"cluster\":\"v1\",\"shards\":1}\n{\"shard\":1,\"bind\":\"x:1\"}", "out of range"},
		{"duplicate", "{\"cluster\":\"v1\",\"shards\":2}\n{\"shard\":0,\"bind\":\"x:1\"}\n{\"shard\":0,\"bind\":\"x:2\"}", "already placed"},
		{"missing-placement", "{\"cluster\":\"v1\",\"shards\":2}\n{\"shard\":0,\"bind\":\"x:1\"}", "no placement"},
		{"empty-addrs", "{\"cluster\":\"v1\",\"shards\":1}\n{\"shard\":0}", "neither bind nor advertise"},
		{"advertise-conflict", "{\"cluster\":\"v1\",\"shards\":2}\n{\"shard\":0,\"bind\":\"a:1\",\"advertise\":\"x:9\"}\n{\"shard\":1,\"bind\":\"b:2\",\"advertise\":\"x:9\"}", "bound as both"},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("config accepted, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// startWorkers brings up count workers on ephemeral ports and returns
// a Config placing the shards across them round-robin.
func startWorkers(t *testing.T, count, shards int, opts WorkerOptions) *Config {
	t.Helper()
	cfg := &Config{Shards: shards, DialTimeout: 5 * time.Second}
	for i := 0; i < count; i++ {
		w, err := NewWorker("127.0.0.1:0", opts)
		if err != nil {
			t.Fatal(err)
		}
		go w.Serve()
		t.Cleanup(func() { w.Close() })
		_ = w
		for s := i; s < shards; s += count {
			for len(cfg.Entries) <= s {
				cfg.Entries = append(cfg.Entries, Entry{})
			}
			cfg.Entries[s] = Entry{Shard: s, Bind: w.Addr()}
		}
	}
	return cfg
}

// lockstep runs the reference engine for parity comparison.
func lockstep(t *testing.T, g *graph.Graph, bandwidth int, program func(id int) congest.Fiber) *congest.Stats {
	t.Helper()
	eng := congest.NewEngine(g, congest.Config{Bandwidth: bandwidth})
	stats, err := eng.Run(program)
	if err != nil {
		t.Fatalf("lockstep: %v", err)
	}
	return stats
}

// TestDispatchParity is the acceptance bar: a multi-worker mesh must
// produce Rounds/Messages/ByKind bit-identical to the in-process
// engines, for both algorithm families.
func TestDispatchParity(t *testing.T) {
	g, err := graph.RandomConnected(24, 60, graph.GenOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	cfg := startWorkers(t, 3, 4, WorkerOptions{})

	t.Run("elkin", func(t *testing.T) {
		wantPorts := make([][]int, g.N())
		wantK := 0
		want := lockstep(t, g, 1, core.FiberFactory(g.N(), core.Config{}, func(id int, r *core.Result) {
			wantPorts[id] = r.MSTPorts
			if id == 0 {
				wantK = r.K
			}
		}))
		res, err := Dispatch(context.Background(), g, cfg, DispatchOptions{
			Algorithm: "elkin",
			Timeout:   60 * time.Second,
		})
		if err != nil {
			t.Fatalf("Dispatch: %v", err)
		}
		if *res.Stats != *want {
			t.Errorf("stats differ: remote rounds=%d messages=%d, lockstep rounds=%d messages=%d",
				res.Stats.Rounds, res.Stats.Messages, want.Rounds, want.Messages)
		}
		if res.K != wantK {
			t.Errorf("K = %d, want %d", res.K, wantK)
		}
		for v := range wantPorts {
			if len(res.Ports[v]) != len(wantPorts[v]) {
				t.Fatalf("vertex %d: remote ports %v, lockstep %v", v, res.Ports[v], wantPorts[v])
			}
			for i := range wantPorts[v] {
				if res.Ports[v][i] != wantPorts[v][i] {
					t.Fatalf("vertex %d: port lists differ", v)
				}
			}
		}
		if err := verify.CheckMST(g, res.Ports); err != nil {
			t.Errorf("remote MST invalid: %v", err)
		}
		if res.Net.Sockets != 4*3/2 {
			t.Errorf("Net.Sockets = %d, want 6", res.Net.Sockets)
		}
	})

	t.Run("ghs", func(t *testing.T) {
		want := lockstep(t, g, 1, ghs.FiberFactory(g.N(), func(int, []int) {}))
		res, err := Dispatch(context.Background(), g, cfg, DispatchOptions{
			Algorithm: "ghs",
			Timeout:   60 * time.Second,
		})
		if err != nil {
			t.Fatalf("Dispatch: %v", err)
		}
		if *res.Stats != *want {
			t.Errorf("stats differ: remote rounds=%d messages=%d, lockstep rounds=%d messages=%d",
				res.Stats.Rounds, res.Stats.Messages, want.Rounds, want.Messages)
		}
		if err := verify.CheckMST(g, res.Ports); err != nil {
			t.Errorf("remote GHS MST invalid: %v", err)
		}
	})
}

// TestDispatchChaos runs workers whose own options inject mid-run
// socket closes and asserts the reconnect path keeps the distributed
// stats bit-identical.
func TestDispatchChaos(t *testing.T) {
	g, err := graph.RandomConnected(24, 60, graph.GenOptions{Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	cfg := startWorkers(t, 3, 4, WorkerOptions{ChaosCloseAfter: 3})
	want := lockstep(t, g, 1, core.FiberFactory(g.N(), core.Config{}, func(int, *core.Result) {}))
	res, err := Dispatch(context.Background(), g, cfg, DispatchOptions{
		Algorithm: "elkin",
		Timeout:   60 * time.Second,
	})
	if err != nil {
		t.Fatalf("Dispatch with chaos: %v", err)
	}
	if *res.Stats != *want {
		t.Errorf("stats diverged after reconnect: remote rounds=%d messages=%d, lockstep rounds=%d messages=%d",
			res.Stats.Rounds, res.Stats.Messages, want.Rounds, want.Messages)
	}
	if res.Net.Reconnects < 1 {
		t.Errorf("Net.Reconnects = %d, want >= 1", res.Net.Reconnects)
	}
}

// TestJobCannotEnableChaos sends a plain worker a job header that
// still carries the retired "chaos_close_after" field: the worker must
// ignore it, so a driver cannot switch on fault injection.
func TestJobCannotEnableChaos(t *testing.T) {
	g := graph.Ring(8, graph.GenOptions{Seed: 9})
	w, err := NewWorker("127.0.0.1:0", WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	go w.Serve()
	defer w.Close()
	job := jobHeader{
		RunID: 7, N: g.N(), M: g.M(), NShards: 2,
		Addrs:     []string{w.Addr(), w.Addr()},
		Local:     []bool{true, true},
		Algorithm: "ghs", TimeoutMS: 30_000,
	}
	plain, err := encodeJob(job, g)
	if err != nil {
		t.Fatal(err)
	}
	hdrLen := binary.LittleEndian.Uint32(plain)
	var fields map[string]any
	if err := json.Unmarshal(plain[4:4+hdrLen], &fields); err != nil {
		t.Fatal(err)
	}
	fields["chaos_close_after"] = 1
	hdr, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	payload := binary.LittleEndian.AppendUint32(nil, uint32(len(hdr)))
	payload = append(append(payload, hdr...), plain[4+hdrLen:]...)

	conn, err := net.Dial("tcp", w.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(ControlMagic[:]); err != nil {
		t.Fatal(err)
	}
	if err := writeFrame(conn, frameJob, payload); err != nil {
		t.Fatal(err)
	}
	typ, out, err := readFrame(conn)
	if err != nil || typ != frameResult {
		t.Fatalf("result frame: type %d, err %v", typ, err)
	}
	res, err := decodeResult(out, make([][]int, g.N()))
	if err != nil {
		t.Fatal(err)
	}
	if res.Err != "" {
		t.Fatalf("job failed: %s", res.Err)
	}
	if res.Net.Reconnects != 0 {
		t.Errorf("Reconnects = %d, want 0: the job header switched on fault injection", res.Net.Reconnects)
	}
}

// TestDispatchWorkerDown: an unreachable worker must surface as a
// typed WorkerError naming its address and shards, not a hang.
func TestDispatchWorkerDown(t *testing.T) {
	g := graph.Ring(8, graph.GenOptions{Seed: 7})
	w, err := NewWorker("127.0.0.1:0", WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dead := w.Addr()
	w.Close() // port refused from here on
	live, err := NewWorker("127.0.0.1:0", WorkerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	go live.Serve()
	defer live.Close()
	cfg := &Config{
		Shards:      2,
		DialTimeout: 500 * time.Millisecond,
		Entries: []Entry{
			{Shard: 0, Bind: live.Addr()},
			{Shard: 1, Bind: dead},
		},
	}
	_, err = Dispatch(context.Background(), g, cfg, DispatchOptions{
		Algorithm: "ghs",
		Timeout:   10 * time.Second,
	})
	var we *WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("err = %v, want *WorkerError", err)
	}
	if we.Addr != dead {
		t.Errorf("WorkerError.Addr = %q, want %q", we.Addr, dead)
	}
	if len(we.Shards) != 1 || we.Shards[0] != 1 {
		t.Errorf("WorkerError.Shards = %v, want [1]", we.Shards)
	}
}

// TestReadFrameBoundsAllocation: a control frame header declaring the
// largest allowed payload, followed by EOF, must fail without
// allocating for the declared size — a client that reaches the port
// cannot pin memory it never sends.
func TestReadFrameBoundsAllocation(t *testing.T) {
	var hdr [5]byte
	hdr[0] = frameJob
	binary.LittleEndian.PutUint32(hdr[1:], maxFramePayload)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readFrame(bytes.NewReader(hdr[:]))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated frame read without error")
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
		t.Errorf("reading a 5-byte frame allocated %d bytes", d)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("err = %v, want a truncated-frame error", err)
	}

	var buf bytes.Buffer
	if err := writeFrame(&buf, frameResult, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	typ, payload, err := readFrame(&buf)
	if err != nil || typ != frameResult || string(payload) != "abc" {
		t.Errorf("round trip = %d %q %v, want %d \"abc\" <nil>", typ, payload, err, frameResult)
	}
}
