package congest

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"congestmst/internal/graph"
)

func pair(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1, 7)
	return b.MustGraph()
}

// run drives boot on every vertex of g through the Step kit.
func run(g *graph.Graph, cfg Config, boot func(c Context) Step) (*Stats, error) {
	return NewEngine(g, cfg).Run(StepFiberFactory(g.N(), boot))
}

// done is the continuation that retires a program.
func done(Context, []Inbound) Step { return Done() }

// nextRound parks until the next round and continues with k.
func nextRound(c Context, k Resume) Step { return Until(c.Round()+1, k) }

func path3(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 2)
	return b.MustGraph()
}

func TestRoundSemantics(t *testing.T) {
	// A message sent in round r must arrive at round r+1.
	var gotRound int64 = -1
	stats, err := run(pair(t), Config{}, func(c Context) Step {
		if c.ID() == 0 {
			c.Send(0, Message{Kind: 1, A: 42})
			return Done()
		}
		return Await(func(c Context, msgs []Inbound) Step {
			gotRound = c.Round()
			if len(msgs) != 1 || msgs[0].Msg.A != 42 {
				t.Errorf("node 1 got %v, want one message with A=42", msgs)
			}
			return Done()
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if gotRound != 1 {
		t.Errorf("delivery round = %d, want 1", gotRound)
	}
	if stats.Messages != 1 {
		t.Errorf("Messages = %d, want 1", stats.Messages)
	}
	if stats.Rounds != 1 {
		t.Errorf("Rounds = %d, want 1", stats.Rounds)
	}
}

func TestSameRoundSendNotSeen(t *testing.T) {
	// Both vertices wake in round 1 and vertex 0 runs first: its send
	// must reach vertex 1 in round 2, not in the call that follows it
	// within round 1.
	var got [3]int
	_, err := run(pair(t), Config{}, func(c Context) Step {
		return Until(1, func(c Context, msgs []Inbound) Step {
			if c.ID() == 0 {
				c.Send(0, Message{A: 1})
				return Done()
			}
			got[c.Round()] = len(msgs)
			return Until(2, func(c Context, msgs []Inbound) Step {
				got[c.Round()] = len(msgs)
				return Done()
			})
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got[1] != 0 || got[2] != 1 {
		t.Errorf("vertex 1 saw %d messages in round 1 and %d in round 2, want 0 and 1", got[1], got[2])
	}
}

func TestPingPong(t *testing.T) {
	const volleys = 10
	stats, err := run(pair(t), Config{}, func(c Context) Step {
		i := 0
		var k Resume
		if c.ID() == 0 {
			k = func(c Context, msgs []Inbound) Step {
				if len(msgs) != 1 || msgs[0].Msg.A != int64(i) {
					t.Errorf("volley %d: got %v", i, msgs)
				}
				if i++; i == volleys {
					return Done()
				}
				c.Send(0, Message{A: int64(i)})
				return Await(k)
			}
			c.Send(0, Message{A: 0})
			return Await(k)
		}
		k = func(c Context, msgs []Inbound) Step {
			c.Send(msgs[0].Port, msgs[0].Msg) // echo
			if i++; i == volleys {
				return Done()
			}
			return Await(k)
		}
		return Await(k)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.Messages != 2*volleys {
		t.Errorf("Messages = %d, want %d", stats.Messages, 2*volleys)
	}
	if stats.Rounds != 2*volleys {
		t.Errorf("Rounds = %d, want %d", stats.Rounds, 2*volleys)
	}
}

func TestBandwidthViolation(t *testing.T) {
	_, err := run(pair(t), Config{Bandwidth: 1}, func(c Context) Step {
		if c.ID() == 0 {
			c.Send(0, Message{})
			c.Send(0, Message{}) // second message on the same port, b=1
		}
		return Done()
	})
	if !errors.Is(err, ErrBandwidth) {
		t.Fatalf("err = %v, want ErrBandwidth", err)
	}
}

func TestBandwidthRespected(t *testing.T) {
	stats, err := run(pair(t), Config{Bandwidth: 3}, func(c Context) Step {
		if c.ID() == 0 {
			c.Send(0, Message{A: 1})
			c.Send(0, Message{A: 2})
			c.Send(0, Message{A: 3})
			return Done()
		}
		return Await(func(c Context, msgs []Inbound) Step {
			if len(msgs) != 3 {
				t.Errorf("got %d messages in one round, want 3", len(msgs))
			}
			for i, m := range msgs {
				if m.Msg.A != int64(i+1) {
					t.Errorf("message %d = %+v, want A=%d (FIFO order)", i, m.Msg, i+1)
				}
			}
			return Done()
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.Messages != 3 {
		t.Errorf("Messages = %d, want 3", stats.Messages)
	}
}

// sendEachRound has vertex 0 send one message a round for n rounds
// while vertex 1 receives all n; other vertices run other.
func sendEachRound(n int, other func(c Context) Step) func(c Context) Step {
	return func(c Context) Step {
		i := 0
		var k Resume
		switch c.ID() {
		case 0:
			k = func(c Context, _ []Inbound) Step {
				if i == n {
					return Done()
				}
				c.Send(0, Message{A: int64(i)})
				i++
				return nextRound(c, k)
			}
			return k(c, nil)
		case 1:
			k = func(c Context, msgs []Inbound) Step {
				if i += len(msgs); i >= n {
					return Done()
				}
				return Await(k)
			}
			return Await(k)
		}
		return other(c)
	}
}

func TestBandwidthResetsAcrossRounds(t *testing.T) {
	if _, err := run(pair(t), Config{Bandwidth: 1}, sendEachRound(5, nil)); err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	_, err := run(pair(t), Config{}, func(c Context) Step {
		return Await(done) // nobody ever sends
	})
	if !errors.Is(err, ErrDeadlock) {
		t.Fatalf("err = %v, want ErrDeadlock", err)
	}
}

func TestFastForward(t *testing.T) {
	// Parked processors must not cost wall-clock time per round: a
	// million-round sleep should complete instantly.
	start := time.Now()
	stats, err := run(pair(t), Config{}, func(c Context) Step {
		return Until(1_000_000, done)
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
	_, err := run(pair(t), Config{}, func(c Context) Step {
		if c.ID() == 0 {
			return Until(3, func(c Context, _ []Inbound) Step { // idle until round 3
				c.Send(0, Message{A: 9})
				return Done()
			})
		}
		return Until(100, func(c Context, msgs []Inbound) Step {
			if c.Round() != 4 {
				t.Errorf("woken at round %d, want 4", c.Round())
			}
			if len(msgs) != 1 || msgs[0].Msg.A != 9 {
				t.Errorf("got %v, want the A=9 message", msgs)
			}
			return Done()
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestUntilDeadlineReached(t *testing.T) {
	_, err := run(pair(t), Config{}, func(c Context) Step {
		return Until(17, func(c Context, msgs []Inbound) Step {
			if msgs != nil {
				t.Errorf("got %v, want nil at deadline", msgs)
			}
			if c.Round() != 17 {
				t.Errorf("resumed at round %d, want 17", c.Round())
			}
			return Done()
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestStaleParkTargetFails(t *testing.T) {
	_, err := run(pair(t), Config{}, func(c Context) Step {
		return Until(c.Round(), done)
	})
	if err == nil || !strings.Contains(err.Error(), "parked for round 0 at round 0") {
		t.Fatalf("err = %v, want a stale-park error", err)
	}
}

func TestInboxSortedByPort(t *testing.T) {
	// Node 1 of the path 0-1-2 receives from both neighbors in one
	// round; the inbox must be sorted by port.
	_, err := run(path3(t), Config{}, func(c Context) Step {
		if c.ID() != 1 {
			c.Send(0, Message{A: int64(c.ID())})
			return Done()
		}
		return Await(func(c Context, msgs []Inbound) Step {
			if len(msgs) != 2 {
				t.Fatalf("got %d messages, want 2", len(msgs))
			}
			if msgs[0].Port != 0 || msgs[1].Port != 1 {
				t.Errorf("ports = %d,%d, want 0,1", msgs[0].Port, msgs[1].Port)
			}
			if msgs[0].Msg.A != 0 || msgs[1].Msg.A != 2 {
				t.Errorf("payloads = %d,%d, want 0,2", msgs[0].Msg.A, msgs[1].Msg.A)
			}
			return Done()
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestFinalSendsDelivered(t *testing.T) {
	// Messages queued in the call that parks Done must still be
	// delivered.
	_, err := run(pair(t), Config{}, func(c Context) Step {
		if c.ID() == 0 {
			c.Send(0, Message{A: 5})
			return Done()
		}
		return Await(func(c Context, msgs []Inbound) Step {
			if len(msgs) != 1 || msgs[0].Msg.A != 5 {
				t.Errorf("got %v, want A=5", msgs)
			}
			return Done()
		})
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestWeightVisible(t *testing.T) {
	_, err := run(path3(t), Config{}, func(c Context) Step {
		if c.ID() == 1 {
			if w0, w1 := c.Weight(0), c.Weight(1); w0 != 1 || w1 != 2 {
				t.Errorf("weights = %d,%d, want 1,2", w0, w1)
			}
		}
		return Done()
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestProgramPanicReported(t *testing.T) {
	_, err := run(path3(t), Config{}, func(c Context) Step {
		if c.ID() == 1 {
			panic("boom")
		}
		return Await(done) // the others park; the failed run drops them
	})
	if err == nil || !strings.Contains(err.Error(), "processor 1 panicked: boom") {
		t.Fatalf("err = %v, want panic report", err)
	}
}

func TestMaxRounds(t *testing.T) {
	_, err := run(pair(t), Config{MaxRounds: 10}, sendEachRound(1<<30, nil))
	if !errors.Is(err, ErrMaxRounds) {
		t.Fatalf("err = %v, want ErrMaxRounds", err)
	}
}

func TestInvalidPort(t *testing.T) {
	_, err := run(pair(t), Config{}, func(c Context) Step {
		if c.ID() == 0 {
			c.Send(5, Message{})
		}
		return Done()
	})
	if err == nil {
		t.Fatal("err = nil, want invalid-port error")
	}
}

func TestEngineSingleUse(t *testing.T) {
	g := pair(t)
	e := NewEngine(g, Config{})
	retire := func(Context) Step { return Done() }
	if _, err := e.Run(StepFiberFactory(g.N(), retire)); err != nil {
		t.Fatalf("first Run: %v", err)
	}
	if _, err := e.Run(StepFiberFactory(g.N(), retire)); !errors.Is(err, ErrReused) {
		t.Fatalf("second Run err = %v, want ErrReused", err)
	}
}

func TestDeterminism(t *testing.T) {
	// A flood program with data-dependent behaviour must produce
	// byte-identical stats across runs.
	g, err := graph.RandomConnected(64, 192, graph.GenOptions{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	flood := func() *Stats {
		stats, err := run(g, Config{}, func(c Context) Step {
			// Min-id flooding for a few rounds.
			best, r := int64(c.ID()), 0
			var k Resume
			k = func(c Context, msgs []Inbound) Step {
				for _, in := range msgs {
					if in.Msg.A < best {
						best = in.Msg.A
					}
				}
				if r == 8 {
					return Done()
				}
				r++
				for p := 0; p < c.Degree(); p++ {
					c.Send(p, Message{Kind: 3, A: best})
				}
				return nextRound(c, k)
			}
			return k(c, nil)
		})
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

func TestNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 5; i++ {
		_, err := run(path3(t), Config{}, func(c Context) Step {
			if c.ID() == 0 {
				c.Send(0, Message{})
			}
			return Until(3, done)
		})
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: before=%d after=%d; the engine must run on the caller's goroutine alone", before, after)
	}
}

func TestByKindCounting(t *testing.T) {
	stats, err := run(pair(t), Config{Bandwidth: 4}, func(c Context) Step {
		if c.ID() == 0 {
			c.Send(0, Message{Kind: 7})
			c.Send(0, Message{Kind: 7})
			c.Send(0, Message{Kind: 9})
			return Done()
		}
		return Await(done)
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.ByKind[7] != 2 || stats.ByKind[9] != 1 {
		t.Errorf("ByKind[7]=%d ByKind[9]=%d, want 2 and 1", stats.ByKind[7], stats.ByKind[9])
	}
}

func TestTimerFiresDuringBusyRounds(t *testing.T) {
	// Regression: while two processors keep the network busy every
	// round, a third processor's deadline must still fire exactly on
	// time (timers must merge with message-driven wakeups).
	var wokeAt int64
	_, err := run(path3(t), Config{}, sendEachRound(20, func(c Context) Step {
		return Until(7, func(c Context, _ []Inbound) Step {
			wokeAt = c.Round()
			return Done()
		})
	}))
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if wokeAt != 7 {
		t.Errorf("processor 2 woke at round %d, want 7", wokeAt)
	}
}
