package parsim

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"congestmst/internal/congest"
	"congestmst/internal/graph"
)

// The tests in this file write their programs in congest's Step form
// and run them through congest.StepFiberFactory — the path every stock
// algorithm takes — while fiber_test.go drives hand-written Fibers.

func pair(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1, 7)
	return b.MustGraph()
}

func path3(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 2)
	return b.MustGraph()
}

// run drives boot on every vertex of g through the Step kit.
func run(g *graph.Graph, cfg Config, boot func(c congest.Context) congest.Step) (*congest.Stats, error) {
	return NewEngine(g, cfg).Run(congest.StepFiberFactory(g.N(), boot))
}

// done is the continuation that retires a program.
func done(congest.Context, []congest.Inbound) congest.Step { return congest.Done() }

// nextRound parks until the next round and continues with k.
func nextRound(c congest.Context, k congest.Resume) congest.Step {
	return congest.Until(c.Round()+1, k)
}

func TestRoundSemantics(t *testing.T) {
	// A message sent in round r must arrive at round r+1.
	var gotRound int64 = -1
	stats, err := run(pair(t), Config{}, func(c congest.Context) congest.Step {
		if c.ID() == 0 {
			c.Send(0, congest.Message{Kind: 1, A: 42})
			return congest.Done()
		}
		return congest.Await(func(c congest.Context, msgs []congest.Inbound) congest.Step {
			gotRound = c.Round()
			if len(msgs) != 1 || msgs[0].Msg.A != 42 {
				t.Errorf("node 1 got %v, want one message with A=42", msgs)
			}
			return congest.Done()
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if gotRound != 1 {
		t.Errorf("delivery round = %d, want 1", gotRound)
	}
	if stats.Messages != 1 || stats.Rounds != 1 {
		t.Errorf("stats = %d msgs %d rounds, want 1 and 1", stats.Messages, stats.Rounds)
	}
}

func TestPingPong(t *testing.T) {
	const volleys = 10
	stats, err := run(pair(t), Config{}, func(c congest.Context) congest.Step {
		i := 0
		var k congest.Resume
		if c.ID() == 0 {
			k = func(c congest.Context, msgs []congest.Inbound) congest.Step {
				if len(msgs) != 1 || msgs[0].Msg.A != int64(i) {
					t.Errorf("volley %d: got %v", i, msgs)
				}
				if i++; i == volleys {
					return congest.Done()
				}
				c.Send(0, congest.Message{A: int64(i)})
				return congest.Await(k)
			}
			c.Send(0, congest.Message{A: 0})
			return congest.Await(k)
		}
		k = func(c congest.Context, msgs []congest.Inbound) congest.Step {
			c.Send(msgs[0].Port, msgs[0].Msg) // echo
			if i++; i == volleys {
				return congest.Done()
			}
			return congest.Await(k)
		}
		return congest.Await(k)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.Messages != 2*volleys || stats.Rounds != 2*volleys {
		t.Errorf("stats = %d msgs %d rounds, want %d and %d", stats.Messages, stats.Rounds, 2*volleys, 2*volleys)
	}
}

func TestBandwidthViolation(t *testing.T) {
	_, err := run(pair(t), Config{Bandwidth: 1}, func(c congest.Context) congest.Step {
		if c.ID() == 0 {
			c.Send(0, congest.Message{})
			c.Send(0, congest.Message{}) // second message on the same port, b=1
		}
		return congest.Done()
	})
	if !errors.Is(err, congest.ErrBandwidth) {
		t.Fatalf("err = %v, want ErrBandwidth", err)
	}
}

func TestBandwidthFIFO(t *testing.T) {
	_, err := run(pair(t), Config{Bandwidth: 3}, func(c congest.Context) congest.Step {
		if c.ID() == 0 {
			c.Send(0, congest.Message{A: 1})
			c.Send(0, congest.Message{A: 2})
			c.Send(0, congest.Message{A: 3})
			return congest.Done()
		}
		return congest.Await(func(c congest.Context, msgs []congest.Inbound) congest.Step {
			if len(msgs) != 3 {
				t.Errorf("got %d messages in one round, want 3", len(msgs))
			}
			for i, m := range msgs {
				if m.Msg.A != int64(i+1) {
					t.Errorf("message %d = %+v, want A=%d (FIFO order)", i, m.Msg, i+1)
				}
			}
			return congest.Done()
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	_, err := run(pair(t), Config{}, func(c congest.Context) congest.Step {
		return congest.Await(done) // nobody ever sends
	})
	if !errors.Is(err, congest.ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestFastForward(t *testing.T) {
	// Parked processors must not cost wall-clock time per round.
	start := time.Now()
	stats, err := run(pair(t), Config{}, func(c congest.Context) congest.Step {
		return congest.Until(1_000_000, done)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.Rounds != 1_000_000 {
		t.Errorf("Rounds = %d, want 1000000", stats.Rounds)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("fast-forward took %v; parked rounds are not O(1)", elapsed)
	}
}

func TestUntilWokenEarly(t *testing.T) {
	_, err := run(pair(t), Config{}, func(c congest.Context) congest.Step {
		if c.ID() == 0 {
			return congest.Until(3, func(c congest.Context, _ []congest.Inbound) congest.Step {
				c.Send(0, congest.Message{A: 9})
				return congest.Done()
			})
		}
		return congest.Until(100, func(c congest.Context, msgs []congest.Inbound) congest.Step {
			if c.Round() != 4 {
				t.Errorf("woken at round %d, want 4", c.Round())
			}
			if len(msgs) != 1 || msgs[0].Msg.A != 9 {
				t.Errorf("got %v, want the A=9 message", msgs)
			}
			return congest.Done()
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestUntilDeadlineReached(t *testing.T) {
	_, err := run(pair(t), Config{}, func(c congest.Context) congest.Step {
		return congest.Until(17, func(c congest.Context, msgs []congest.Inbound) congest.Step {
			if msgs != nil {
				t.Errorf("got %v, want nil at deadline", msgs)
			}
			if c.Round() != 17 {
				t.Errorf("resumed at round %d, want 17", c.Round())
			}
			return congest.Done()
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestInboxSortedByPort(t *testing.T) {
	_, err := run(path3(t), Config{}, func(c congest.Context) congest.Step {
		if c.ID() != 1 {
			c.Send(0, congest.Message{A: int64(c.ID())})
			return congest.Done()
		}
		return congest.Await(func(c congest.Context, msgs []congest.Inbound) congest.Step {
			if len(msgs) != 2 {
				t.Fatalf("got %d messages, want 2", len(msgs))
			}
			if msgs[0].Port != 0 || msgs[1].Port != 1 {
				t.Errorf("ports = %d,%d, want 0,1", msgs[0].Port, msgs[1].Port)
			}
			if msgs[0].Msg.A != 0 || msgs[1].Msg.A != 2 {
				t.Errorf("payloads = %d,%d, want 0,2", msgs[0].Msg.A, msgs[1].Msg.A)
			}
			return congest.Done()
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestFinalSendsDelivered(t *testing.T) {
	_, err := run(pair(t), Config{}, func(c congest.Context) congest.Step {
		if c.ID() == 0 {
			c.Send(0, congest.Message{A: 5})
			return congest.Done() // sends made in the retiring call
		}
		return congest.Await(func(c congest.Context, msgs []congest.Inbound) congest.Step {
			if len(msgs) != 1 || msgs[0].Msg.A != 5 {
				t.Errorf("got %v, want A=5", msgs)
			}
			return congest.Done()
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestWeightVisible(t *testing.T) {
	_, err := run(path3(t), Config{}, func(c congest.Context) congest.Step {
		if c.ID() == 1 {
			if w0, w1 := c.Weight(0), c.Weight(1); w0 != 1 || w1 != 2 {
				t.Errorf("weights = %d,%d, want 1,2", w0, w1)
			}
		}
		return congest.Done()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestProgramPanicReported(t *testing.T) {
	_, err := run(path3(t), Config{}, func(c congest.Context) congest.Step {
		if c.ID() == 1 {
			panic("boom")
		}
		return congest.Await(done) // the others park; the failed run drops them
	})
	if err == nil {
		t.Fatal("err = nil, want panic report")
	}
}

// sendEachRound has vertex 0 send one message a round for n rounds
// while vertex 1 receives all n; other vertices run other.
func sendEachRound(n int, other func(c congest.Context) congest.Step) func(c congest.Context) congest.Step {
	return func(c congest.Context) congest.Step {
		i := 0
		var k congest.Resume
		switch c.ID() {
		case 0:
			k = func(c congest.Context, _ []congest.Inbound) congest.Step {
				if i == n {
					return congest.Done()
				}
				c.Send(0, congest.Message{A: int64(i)})
				i++
				return nextRound(c, k)
			}
			return k(c, nil)
		case 1:
			k = func(c congest.Context, msgs []congest.Inbound) congest.Step {
				if i += len(msgs); i >= n {
					return congest.Done()
				}
				return congest.Await(k)
			}
			return congest.Await(k)
		}
		return other(c)
	}
}

func TestMaxRounds(t *testing.T) {
	_, err := run(pair(t), Config{MaxRounds: 10}, sendEachRound(1<<30, nil))
	if !errors.Is(err, congest.ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
}

func TestInvalidPort(t *testing.T) {
	_, err := run(pair(t), Config{}, func(c congest.Context) congest.Step {
		if c.ID() == 0 {
			c.Send(5, congest.Message{})
		}
		return congest.Done()
	})
	if err == nil {
		t.Fatal("err = nil, want invalid-port error")
	}
}

func TestEngineSingleUse(t *testing.T) {
	g := pair(t)
	e := NewEngine(g, Config{})
	retire := func(congest.Context) congest.Step { return congest.Done() }
	if _, err := e.Run(congest.StepFiberFactory(g.N(), retire)); err != nil {
		t.Fatalf("first Run: %v", err)
	}
	if _, err := e.Run(congest.StepFiberFactory(g.N(), retire)); !errors.Is(err, congest.ErrReused) {
		t.Fatalf("second Run err = %v, want ErrReused", err)
	}
}

func TestTimerFiresDuringBusyRounds(t *testing.T) {
	// While two processors keep the network busy every round, a third
	// processor's deadline must still fire exactly on time.
	var wokeAt int64
	_, err := run(path3(t), Config{}, sendEachRound(20, func(c congest.Context) congest.Step {
		return congest.Until(7, func(c congest.Context, _ []congest.Inbound) congest.Step {
			wokeAt = c.Round()
			return congest.Done()
		})
	}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if wokeAt != 7 {
		t.Errorf("processor 2 woke at round %d, want 7", wokeAt)
	}
}

func TestNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		_, err := run(path3(t), Config{Workers: 3}, func(c congest.Context) congest.Step {
			if c.ID() == 0 {
				c.Send(0, congest.Message{})
			}
			return congest.Until(3, done)
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	for i := 0; i < 50 && runtime.NumGoroutine() > before; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: before=%d after=%d; worker goroutines leaked", before, after)
	}
}

// floodProgram is a data-dependent min-id flood in Step form, used to
// compare the engines delivery for delivery. Vertices with an even
// current minimum skip a round now and then, so activation is sparse
// and data-dependent.
func floodProgram(rounds int) func(congest.Context) congest.Step {
	return func(c congest.Context) congest.Step {
		best, r := int64(c.ID()), 0
		var iter func(c congest.Context) congest.Step
		iter = func(c congest.Context) congest.Step {
			if r == rounds {
				return congest.Done()
			}
			skip := best%2 == 0 && r%3 == 2
			r++
			if !skip {
				for p := 0; p < c.Degree(); p++ {
					c.Send(p, congest.Message{Kind: byte(p % 5), A: best})
				}
			}
			return nextRound(c, func(c congest.Context, msgs []congest.Inbound) congest.Step {
				if !skip {
					for _, in := range msgs {
						if in.Msg.A < best {
							best = in.Msg.A
						}
					}
				}
				return iter(c)
			})
		}
		return iter(c)
	}
}

// lockstepFlood runs floodProgram(rounds) on the lockstep reference
// engine.
func lockstepFlood(t *testing.T, g *graph.Graph, rounds int) *congest.Stats {
	t.Helper()
	ref, err := congest.NewEngine(g, congest.Config{}).Run(congest.StepFiberFactory(g.N(), floodProgram(rounds)))
	if err != nil {
		t.Fatalf("lockstep n=%d: %v", g.N(), err)
	}
	return ref
}

// TestStatsMatchLockstep is the heart of the package contract: on the
// same graph and program, parsim and congest must report bit-identical
// Rounds, Messages and ByKind — including when the round width crosses
// the inline/parallel threshold and for every worker count.
func TestStatsMatchLockstep(t *testing.T) {
	sizes := []struct{ n, m int }{{40, 100}, {300, 900}, {1500, 4000}}
	if testing.Short() {
		sizes = sizes[:2]
	}
	for _, sz := range sizes {
		g, err := graph.RandomConnected(sz.n, sz.m, graph.GenOptions{Seed: uint64(sz.n)})
		if err != nil {
			t.Fatal(err)
		}
		ref := lockstepFlood(t, g, 12)
		for _, workers := range []int{1, 2, 4, 7} {
			got, err := run(g, Config{Workers: workers}, floodProgram(12))
			if err != nil {
				t.Fatalf("parsim n=%d workers=%d: %v", sz.n, workers, err)
			}
			if *got != *ref {
				t.Errorf("n=%d workers=%d: stats differ from lockstep:\nparsim:   %+v\nlockstep: %+v",
					sz.n, workers, got, ref)
			}
		}
	}
}

// TestDeterminismAcrossRuns repeats one parallel run and demands
// byte-identical stats, whatever the worker interleaving did.
func TestDeterminismAcrossRuns(t *testing.T) {
	g, err := graph.RandomConnected(800, 2400, graph.GenOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	flood := func() *congest.Stats {
		stats, err := run(g, Config{Workers: 4}, floodProgram(10))
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return stats
	}
	a, b := flood(), flood()
	if *a != *b {
		t.Errorf("stats differ between identical runs:\n%+v\n%+v", a, b)
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.NewBuilder(0).MustGraph()
	stats, err := run(g, Config{}, func(c congest.Context) congest.Step {
		t.Error("program ran on an empty graph")
		return congest.Done()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.Rounds != 0 || stats.Messages != 0 {
		t.Errorf("stats = %+v, want zeros", stats)
	}
}
